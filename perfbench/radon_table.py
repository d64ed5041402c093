"""Seeded synthetic table in the radon schema with Minnesota's shape.

The real Minnesota radon file has 919 homes in 85 counties, from 1 to 116
homes per county, one log-uranium value per county, and about one home in
six measured on the first floor.  This module draws a table of that shape
from a seed and writes it with the columns ``county, floor, log_radon,
log_uranium`` that ``mlevidence.data_model.load_radon_csv`` reads.

The county sizes are a fixed profile (log-normal quantiles), so every seed
has the same shape; the seed permutes the sizes over the counties and draws
every value.  The generating parameters are fixed, near published fits of
the varying-intercept, varying-slope radon model.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

N_COUNTIES = 85
N_HOMES = 919
SIZE_SPREAD = 1.23          # log-normal spread; the largest county gets 116 homes
FIRST_FLOOR_SHARE = 1.0 / 6.0

# Generating model: log_radon = a_j + b_j * floor + noise, with
# a_j = 1.46 + 0.72 * u_j + N(0, 0.32^2) and b_j = -0.68 + N(0, 0.25^2).
URANIUM_MEAN, URANIUM_SD = -0.13, 0.36
INTERCEPT, URANIUM_SLOPE, INTERCEPT_SD = 1.46, 0.72, 0.32
FLOOR_EFFECT, FLOOR_SD = -0.68, 0.25
NOISE_SD = 0.73


def county_sizes():
    """Homes per county, largest first: 85 sizes summing to 919, from 1 to 116."""
    q = norm.ppf((N_COUNTIES - 0.5 - np.arange(N_COUNTIES)) / N_COUNTIES)
    w = np.exp(SIZE_SPREAD * q)
    lo, hi = 0.0, float(N_HOMES)
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if np.maximum(1, np.round(c * w)).sum() < N_HOMES:
            lo = c
        else:
            hi = c
    sizes = np.maximum(1, np.round(hi * w)).astype(np.int64)
    sizes[0] += N_HOMES - int(sizes.sum())
    return sizes


@dataclass(frozen=True)
class RadonRows:
    """The drawn table, row by row, grouped by county."""

    county: tuple
    floor: np.ndarray
    log_radon: np.ndarray
    log_uranium: np.ndarray
    county_names: tuple
    county_uranium: np.ndarray


def draw(seed):
    """Draw one radon-schema table; ``seed`` is anything ``numpy.random.default_rng`` takes."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(county_sizes())
    names = tuple(f"COUNTY{j + 1:02d}" for j in range(N_COUNTIES))
    u = URANIUM_MEAN + URANIUM_SD * rng.standard_normal(N_COUNTIES)
    a = INTERCEPT + URANIUM_SLOPE * u + INTERCEPT_SD * rng.standard_normal(N_COUNTIES)
    b = FLOOR_EFFECT + FLOOR_SD * rng.standard_normal(N_COUNTIES)
    group = np.repeat(np.arange(N_COUNTIES), sizes)
    floor = (rng.random(N_HOMES) < FIRST_FLOOR_SHARE).astype(np.int64)
    log_radon = a[group] + b[group] * floor + NOISE_SD * rng.standard_normal(N_HOMES)
    return RadonRows(
        county=tuple(names[j] for j in group),
        floor=floor,
        log_radon=log_radon,
        log_uranium=u[group],
        county_names=names,
        county_uranium=u,
    )


def to_csv(rows):
    """CSV text of the table; every float is written with ``repr`` so it reads back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["county", "floor", "log_radon", "log_uranium"])
    for i in range(len(rows.county)):
        writer.writerow([
            rows.county[i], str(int(rows.floor[i])),
            repr(float(rows.log_radon[i])), repr(float(rows.log_uranium[i])),
        ])
    return buf.getvalue()
