"""Canonical dataset representation, grouping, standardization and CSV ingestion.

A :class:`Dataset` holds the response vector, the population-level design
rows, the (possibly empty) group-varying design rows and a dense group
index.  Group labels are always relabeled to ``1..J`` in first-appearance
order so that per-group sums are reproducible from the input row order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

RADON_MODEL_IDS = ("M0", "M1", "M2", "M3", "M4", "M5")


class SchemaError(ValueError):
    """A required column is missing or the schema is malformed."""


class ParseError(ValueError):
    """A cell could not be parsed as a number; carries the 1-based row index."""

    def __init__(self, message, row):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyDataError(ValueError):
    """The file contains a header but no data rows."""


class ZeroVarianceError(ValueError):
    """Standardization was requested for a constant column."""


@dataclass(frozen=True)
class Dataset:
    """Immutable regression dataset with group structure.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response values.
    x : ndarray, shape (n, d)
        Population-level design rows, d >= 1.
    z : ndarray, shape (n, m)
        Group-varying design rows; m = 0 when the model has no
        group-varying part.
    group_of : ndarray of int, shape (n,)
        Group label per observation, in 1..J.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    group_of: np.ndarray
    n_per_group: np.ndarray = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        group = np.asarray(self.group_of, dtype=np.int64)
        n = y.shape[0]
        if x.ndim != 2 or x.shape[0] != n or x.shape[1] < 1:
            raise ValueError(f"x must be (n, d) with d >= 1, got {x.shape}")
        if z.ndim != 2 or z.shape[0] != n:
            raise ValueError(f"z must be (n, m), got {z.shape}")
        if group.shape != (n,):
            raise ValueError("group_of must have length n")
        if n > 0:
            j_max = int(group.max())
            if group.min() < 1:
                raise ValueError("group labels must lie in 1..J")
            counts = np.bincount(group, minlength=j_max + 1)[1:]
            if np.any(counts == 0):
                raise ValueError("group labels must be dense in 1..J")
        else:
            counts = np.zeros(0, dtype=np.int64)
        for name, arr in (("y", y), ("x", x), ("z", z), ("group_of", group)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        counts.setflags(write=False)
        object.__setattr__(self, "n_per_group", counts)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    @property
    def m(self):
        return self.z.shape[1]

    @property
    def J(self):
        return self.n_per_group.shape[0]


@dataclass(frozen=True)
class Standardization:
    """Affine transform v -> (v - mean) / sd with sd > 0."""

    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("sd must be positive")

    def apply(self, values):
        return (np.asarray(values, dtype=float) - self.mean) / self.sd

    def invert(self, values):
        return np.asarray(values, dtype=float) * self.sd + self.mean


def standardize(values):
    """Center and scale to sample mean 0 and sample sd 1 (n-1 denominator).

    Returns
    -------
    (ndarray, Standardization)

    Raises
    ------
    ZeroVarianceError
        If the input is constant (sample sd is zero).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("need a 1-d array of length >= 2")
    mean = float(np.mean(v))
    sd = float(np.std(v, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        raise ZeroVarianceError("cannot standardize a constant column")
    st = Standardization(mean=mean, sd=sd)
    return st.apply(v), st


def _dense_relabel(labels):
    """Map arbitrary labels to 1..J in first-appearance order."""
    seen = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in seen:
            seen[lab] = len(seen) + 1
        out[i] = seen[lab]
    return out, list(seen)


def _read(path, schema):
    """:func:`load_csv`'s Dataset, each row's group label as written, and each row's number."""
    for key in ("y", "group", "x"):
        if key not in schema:
            raise SchemaError(f"schema is missing required key {key!r}")
    x_cols = list(schema["x"])
    z_cols = list(schema.get("z", []))
    if not x_cols:
        raise SchemaError("schema must name at least one x column")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}
        needed = [schema["y"], schema["group"]] + x_cols + z_cols
        for name in needed:
            if name not in col_index:
                raise SchemaError(f"column {name!r} not found in header {header}")

        y_vals, group_vals, x_rows, z_rows, rownums = [], [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue

            def cell(name):
                try:
                    raw = row[col_index[name]]
                except IndexError:
                    raise ParseError(f"missing value for column {name!r}", rownum) from None
                if raw.strip() == "":
                    raise ParseError(f"blank value in column {name!r}", rownum)
                return raw.strip()

            def num(name):
                raw = cell(name)
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(f"non-numeric value {raw!r} in column {name!r}", rownum) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value {raw!r} in column {name!r}", rownum)
                return value

            y_vals.append(num(schema["y"]))
            group_vals.append(cell(schema["group"]))
            x_rows.append([num(c) for c in x_cols])
            z_rows.append([num(c) for c in z_cols])
            rownums.append(rownum)

    if not y_vals:
        raise EmptyDataError(f"{path}: no data rows")
    group, _ = _dense_relabel(group_vals)
    n = len(y_vals)
    data = Dataset(
        y=np.array(y_vals),
        x=np.array(x_rows),
        z=np.array(z_rows, dtype=float).reshape(n, len(z_cols)),
        group_of=group,
    )
    return data, group_vals, rownums


def load_csv(path, schema):
    """Load a Dataset from a comma-separated file with a header row.

    Parameters
    ----------
    path : str or Path
    schema : dict
        Keys ``y`` (response column name), ``group`` (group column name),
        ``x`` (ordered list of design column names) and optionally ``z``
        (ordered list of group-varying column names).

    Returns
    -------
    Dataset
        Groups relabeled densely to 1..J in first-appearance order; row
        order preserved.

    Raises
    ------
    ParseError
        For a missing, blank, non-numeric or non-finite (``nan``, ``inf``)
        numeric cell, with the 1-based row number; blank rows are skipped
        but counted.
    """
    return _read(path, schema)[0]


@dataclass(frozen=True)
class RadonTable:
    """Raw radon rows: county label, floor indicator, log radon, county log uranium."""

    county: tuple
    floor: np.ndarray
    log_radon: np.ndarray
    log_uranium: np.ndarray

    @property
    def n(self):
        return len(self.county)


def load_radon_csv(path):
    """Read the radon schema: columns county, floor, log_radon, log_uranium.

    Parsed as :func:`load_csv` parses, with the county labels kept as
    written; a floor value other than 0 or 1 is a ``ParseError`` at its row.
    """
    data, county, rownums = _read(
        path, schema={"y": "log_radon", "group": "county", "x": ["floor", "log_uranium"]}
    )
    bad = (data.x[:, 0] != 0.0) & (data.x[:, 0] != 1.0)
    if np.any(bad):
        raise ParseError("floor must be 0 or 1", rownums[int(np.argmax(bad))])
    return RadonTable(
        county=tuple(county),
        floor=data.x[:, 0].astype(np.int64),
        log_radon=data.y.copy(),
        log_uranium=data.x[:, 1].copy(),
    )


def build_radon_design(raw, model_id, uranium_standardization="county"):
    """Construct the model matrix for one of the radon models M0..M5.

    Log radon is standardized row-wise; log uranium is standardized using
    county-level values by default (``uranium_standardization="county"``)
    or the row-expanded values (``"row"``).  The choice is recorded in the
    returned labels.

    Returns
    -------
    (Dataset, dict)
        The dict carries ``x_labels``, ``z_labels``, ``dropped_columns``
        (county first-floor columns absent from M3), ``family`` and
        ``uranium_standardization``.
    """
    if model_id not in RADON_MODEL_IDS:
        raise ValueError(f"unknown radon model id {model_id!r}")
    t = np.asarray(raw.floor, dtype=float)
    y, _ = standardize(raw.log_radon)
    group, county_names = _dense_relabel(raw.county)
    J = len(county_names)
    counts = np.bincount(group, minlength=J + 1)[1:]
    if np.any(counts == 0):
        raise ValueError("county with zero observations")

    county_u = np.empty(J)
    for j in range(J):
        vals = np.asarray(raw.log_uranium)[group == j + 1]
        county_u[j] = vals[0]
    if uranium_standardization == "county":
        _, st_u = standardize(county_u)
    elif uranium_standardization == "row":
        _, st_u = standardize(raw.log_uranium)
    else:
        raise ValueError("uranium_standardization must be 'county' or 'row'")
    v = st_u.apply(np.asarray(raw.log_uranium, dtype=float))

    n = t.shape[0]
    basement = 1.0 - t
    meta = {
        "family": "LinearModel",
        "z_labels": [],
        "dropped_columns": [],
        "uranium_standardization": uranium_standardization,
    }
    z = np.zeros((n, 0))
    if model_id == "M0":
        x = np.column_stack([basement, t])
        labels = ["basement", "first_floor"]
    elif model_id == "M1":
        x = np.column_stack([basement, t, v])
        labels = ["basement", "first_floor", "log_uranium"]
    elif model_id == "M2":
        ind = np.zeros((n, J))
        ind[np.arange(n), group - 1] = 1.0
        x = np.column_stack([ind, basement, t])
        labels = [f"county:{c}" for c in county_names] + ["basement", "first_floor"]
    elif model_id == "M3":
        base_block = np.zeros((n, J))
        base_block[np.arange(n), group - 1] = basement
        floor_block = np.zeros((n, J))
        floor_block[np.arange(n), group - 1] = t
        keep = np.flatnonzero(floor_block.sum(axis=0) > 0)
        meta["dropped_columns"] = [
            f"first_floor:{county_names[j]}" for j in range(J) if j not in set(keep)
        ]
        x = np.column_stack([base_block, floor_block[:, keep]])
        labels = [f"basement:{c}" for c in county_names] + [
            f"first_floor:{county_names[j]}" for j in keep
        ]
    elif model_id == "M4":
        x = np.column_stack([basement, t, v])
        labels = ["basement", "first_floor", "log_uranium"]
        meta["family"] = "SimpleMultilevel"
    else:  # M5
        x = np.column_stack([basement, t, v])
        labels = ["basement", "first_floor", "log_uranium"]
        z = np.column_stack([basement, t])
        meta["family"] = "GeneralMultilevel"
        meta["z_labels"] = ["basement", "first_floor"]
    meta["x_labels"] = labels
    meta["county_names"] = list(county_names)
    data = Dataset(y=y, x=x, z=z, group_of=group)
    return data, meta
