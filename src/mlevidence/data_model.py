"""Canonical dataset representation, grouping, standardization and CSV ingestion.

A :class:`Dataset` holds the response vector, the population-level design
rows, the (possibly empty) group-varying design rows and a dense group
index.  Group labels are always relabeled to ``1..J`` in first-appearance
order so that per-group sums are reproducible from the input row order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

# The model family of each radon model id.
RADON_FAMILIES = {
    "M0": "LinearModel", "M1": "LinearModel", "M2": "LinearModel", "M3": "LinearModel",
    "M4": "SimpleMultilevel", "M5": "GeneralMultilevel",
}
RADON_MODEL_IDS = tuple(RADON_FAMILIES)


class InputError(ValueError):
    """An input the program cannot use; the message names the file, column or id."""


class SchemaError(InputError):
    """A required column is missing or repeated, or the schema is malformed."""


class ParseError(InputError):
    """A cell could not be parsed as a number; carries the 1-based row index."""

    def __init__(self, message, row):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyDataError(InputError):
    """The file contains a header but no data rows."""


class ZeroVarianceError(InputError):
    """Standardization was requested for a constant column or one of fewer than two values."""


class UnknownModelError(InputError):
    """A model id names none of the builtin models."""


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
        # Copies, so that freezing them leaves the caller's arrays as they were.
        y = np.array(self.y, dtype=float)
        x = np.array(self.x, dtype=float)
        z = np.array(self.z, dtype=float)
        group = np.array(self.group_of, dtype=np.int64)
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
        If the input is constant, or its sample sd is not a positive float.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("need a 1-d array of at least two values")
    mean = float(np.mean(v))
    sd = float(np.std(v, ddof=1))
    # A constant column's mean can round off its value, leaving sd at 1e-17.
    if v.min() == v.max() or not 0.0 < sd < math.inf:
        raise ZeroVarianceError("the values are constant")
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


def _schema_columns(schema):
    """(group column, numeric columns ``[y] + x + z``, number of x columns) of a schema."""
    for key in ("y", "group", "x"):
        if key not in schema:
            raise SchemaError(f"schema is missing required key {key!r}")
    x_cols = list(schema["x"])
    z_cols = list(schema.get("z", []))
    if not x_cols:
        raise SchemaError("schema must name at least one x column")
    return schema["group"], [schema["y"]] + x_cols + z_cols, len(x_cols)


def _checked_row(row, rownum, col_index, group_col, columns):
    """One row's numeric cells and group label, read cell by cell in the order y, group, x, z.

    A missing, blank, non-numeric or non-finite cell raises a
    ``ParseError`` naming its column and row.
    """

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

    y = num(columns[0])
    label = cell(group_col)
    return [y] + [num(c) for c in columns[1:]], label


_HEADER_SHOWN = 8   # header names a missing-column error lists before "… (n columns)"


def _read(path, schema):
    """:func:`load_csv`'s Dataset, each row's group label as written, and each row's number.

    Each row's numeric cells are converted in one call and checked finite
    through their sum; only a row that fails is read again cell by cell,
    which raises the error naming its first bad cell.  Blank rows are
    skipped but counted, and a non-blank cell past the header's columns is
    an error; empty trailing cells are accepted.
    """
    group_col, columns, dx = _schema_columns(schema)
    values = array("d")
    labels, rownums = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        col_index = {name: i for i, name in enumerate(header)}
        for name in [columns[0], group_col] + columns[1:]:
            if name not in col_index:
                more = f" … ({len(header)} columns)" if len(header) > _HEADER_SHOWN else ""
                raise SchemaError(f"column {name!r} not found in header {header[:_HEADER_SHOWN]}{more}")
            if (copies := header.count(name)) > 1:
                raise SchemaError(f"column {name!r} appears {copies} times in the header")
        width = len(header)
        numeric = itemgetter(*(col_index[c] for c in columns))
        gi = col_index[group_col]
        for rownum, row in enumerate(reader, start=1):
            # A row is blank when all its cells are whitespace, so when their concatenation is.
            if not "".join(row).strip():
                continue
            if len(row) > width and "".join(row[width:]).strip():
                extra = next(c for c in row[width:] if c.strip())
                raise ParseError(f"cell {extra!r} beyond the header's {width} columns", rownum)
            try:
                cells = tuple(map(float, numeric(row)))
                label = row[gi].strip()
            except (ValueError, IndexError):
                cells = label = None
            # Any non-finite cell makes the sum non-finite; finite cells whose
            # sum overflows are checked, found clean and kept.
            if not (label and math.isfinite(sum(cells))):
                cells, label = _checked_row(row, rownum, col_index, group_col, columns)
            values.extend(cells)
            labels.append(label)
            rownums.append(rownum)
    if not rownums:
        raise EmptyDataError(f"{path}: no data rows")
    values = np.frombuffer(values, dtype=float).reshape(len(rownums), len(columns))
    group, _ = _dense_relabel(labels)
    data = Dataset(y=values[:, 0], x=values[:, 1:1 + dx], z=values[:, 1 + dx:], group_of=group)
    return data, labels, rownums


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
    SchemaError
        For a column the schema reads that is missing from the header or
        appears in it more than once.
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


def _standardize_column(values, what):
    """:func:`standardize`; a ZeroVarianceError names ``what`` (constant, or fewer than two values)."""
    try:
        return standardize(values)
    except ValueError as exc:
        raise ZeroVarianceError(f"cannot standardize {what}: {exc}") from exc


def build_radon_design(raw, model_id):
    """Construct the model matrix for one of the radon models M0..M5.

    Log radon is standardized row-wise; log uranium is standardized over
    the county-level values, one per county.

    Returns
    -------
    (Dataset, dict)
        The dict carries ``x_labels``, ``z_labels``, ``dropped_columns``
        (county first-floor columns absent from M3), ``family``,
        ``county_names`` and the fitted-line rows of each county at floor
        t = 0 and t = 1, built by the same column code as the data rows:
        ``x_fit`` (J, 2, d), NaN where M3 has no first-floor column for the
        county, and ``z_fit`` (J, 2, m), the group-effect rows (a column of
        ones for M4's implicit group intercept).
    """
    if model_id not in RADON_FAMILIES:
        raise UnknownModelError(f"unknown radon model id {model_id!r}")
    group, county_names = _dense_relabel(raw.county)
    J = len(county_names)
    t = np.asarray(raw.floor, dtype=float)
    y, _ = _standardize_column(raw.log_radon, "column 'log_radon'")
    u = np.asarray(raw.log_uranium, dtype=float)
    first = np.unique(group, return_index=True)[1]   # each county's first row
    _, st_u = _standardize_column(u[first], "column 'log_uranium' over counties")
    v = st_u.apply(u)
    has_first_floor = np.bincount(group, weights=t, minlength=J + 1)[1:] > 0
    keep = np.flatnonzero(has_first_floor)

    def columns(group, t, v):
        """(x, x labels, group-effect rows) of ``model_id`` at rows (county, floor, uranium)."""
        n = t.shape[0]
        basement = 1.0 - t

        def per_county(values):
            block = np.zeros((n, J))
            block[np.arange(n), group - 1] = values
            return block

        if model_id == "M0":
            x, labels = [basement, t], ["basement", "first_floor"]
        elif model_id == "M2":
            x = [per_county(1.0), basement, t]
            labels = [f"county:{c}" for c in county_names] + ["basement", "first_floor"]
        elif model_id == "M3":
            x = [per_county(basement), per_county(t)[:, keep]]
            labels = [f"basement:{c}" for c in county_names]
            labels += [f"first_floor:{county_names[j]}" for j in keep]
        else:
            x, labels = [basement, t, v], ["basement", "first_floor", "log_uranium"]
        effects = {"M4": [np.ones(n)], "M5": [basement, t]}.get(model_id)
        return np.column_stack(x), labels, np.column_stack(effects) if effects else np.zeros((n, 0))

    x, labels, z = columns(group, t, v)
    x_fit, _, z_fit = columns(
        np.repeat(np.arange(1, J + 1), 2), np.tile([0.0, 1.0], J), np.repeat(v[first], 2)
    )
    x_fit, z_fit = x_fit.reshape(J, 2, -1), z_fit.reshape(J, 2, -1)
    family = RADON_FAMILIES[model_id]
    if family != "GeneralMultilevel":
        z = np.zeros((t.shape[0], 0))   # M4's group intercept is implicit in its family
    meta = {
        "family": family,
        "x_labels": labels,
        "z_labels": ["basement", "first_floor"] if z.shape[1] else [],
        "dropped_columns": [],
        "county_names": list(county_names),
        "x_fit": x_fit,
        "z_fit": z_fit,
    }
    if model_id == "M3":   # a county without first-floor homes has no first-floor column
        dropped = np.flatnonzero(~has_first_floor)
        meta["dropped_columns"] = [f"first_floor:{county_names[j]}" for j in dropped]
        x_fit[dropped, 1] = np.nan
    return Dataset(y=y, x=x, z=z, group_of=group), meta
