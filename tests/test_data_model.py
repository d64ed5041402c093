import numpy as np
import pytest

from mlevidence.data_model import (
    Dataset,
    EmptyDataError,
    ParseError,
    SchemaError,
    Standardization,
    ZeroVarianceError,
    build_radon_design,
    load_csv,
    load_radon_csv,
    standardize,
)

from conftest import make_dataset


class TestDataset:
    def test_basic_shapes(self, rng):
        data = make_dataset(rng, 20, 3, 2, 4)
        assert data.n == 20 and data.d == 3 and data.m == 2 and data.J == 4
        assert data.n_per_group.sum() == 20
        assert data.n_per_group.shape == (4,)

    def test_arrays_read_only(self, rng):
        data = make_dataset(rng, 10, 2, 0, 2)
        with pytest.raises(ValueError):
            data.y[0] = 1.0

    def test_callers_arrays_stay_writeable_and_unshared(self):
        base = np.zeros(4)
        x, group = np.ones((3, 1)), np.array([1, 1, 2])
        data = Dataset(y=base[:3], x=x, z=np.zeros((3, 0)), group_of=group)
        base[0] = 5.0
        x[0, 0] = 7.0
        group[0] = 2
        assert data.y[0] == 0.0 and data.x[0, 0] == 1.0 and data.group_of[0] == 1
        assert all(a.flags.writeable for a in (base, x, group))

    def test_rejects_sparse_group_labels(self, rng):
        with pytest.raises(ValueError):
            Dataset(
                y=np.zeros(3), x=np.zeros((3, 1)), z=np.zeros((3, 0)),
                group_of=np.array([1, 3, 3]),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(
                y=np.zeros(3), x=np.zeros((4, 1)), z=np.zeros((3, 0)),
                group_of=np.array([1, 1, 1]),
            )


class TestStandardize:
    def test_round_trip(self, rng):
        v = rng.normal(3.0, 2.0, size=50)
        out, st = standardize(v)
        assert np.allclose(st.invert(out), v)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std(ddof=1) - 1.0) < 1e-12

    def test_constant_column_raises(self):
        with pytest.raises(ZeroVarianceError):
            standardize(np.full(5, 2.0))

    def test_apply_uses_stored_moments(self):
        st = Standardization(mean=1.0, sd=2.0)
        assert np.allclose(st.apply(np.array([3.0])), [1.0])


class TestLoadCsv:
    SCHEMA = {"y": "y", "group": "g", "x": ["a", "b"]}

    def write(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return p

    def test_loads_and_relabels_groups(self, tmp_path):
        p = self.write(tmp_path, "y,g,a,b\n1.0,beta,1,0\n2.0,alpha,0,1\n3.0,beta,1,1\n")
        data = load_csv(p, self.SCHEMA)
        # first-appearance order: beta -> 1, alpha -> 2
        assert list(data.group_of) == [1, 2, 1]
        assert data.J == 2
        assert np.allclose(data.y, [1.0, 2.0, 3.0])

    def test_missing_column_is_schema_error(self, tmp_path):
        p = self.write(tmp_path, "y,g,a\n1.0,1,1\n")
        with pytest.raises(SchemaError):
            load_csv(p, self.SCHEMA)

    def test_missing_column_error_shows_the_first_eight_header_names(self, tmp_path):
        """A wide header is cut to its first 8 names and its width, as on a 55-column simulator CSV."""
        names = ["y", "group"] + [f"x{i}" for i in range(46)] + [f"z{i}" for i in range(6)] + ["t"]
        p = self.write(tmp_path, ",".join(names) + "\n" + ",".join(["1"] * 55) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_csv(p, {"y": "log_radon", "group": "county", "x": ["floor"]})
        assert str(exc.value) == (
            "column 'log_radon' not found in header "
            "['y', 'group', 'x0', 'x1', 'x2', 'x3', 'x4', 'x5'] … (55 columns)"
        )

    def test_non_numeric_cell_reports_row(self, tmp_path):
        p = self.write(tmp_path, "y,g,a,b\n1.0,1,1,0\nbad,1,0,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, self.SCHEMA)
        assert exc.value.row == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_y_cell_reports_row(self, tmp_path, cell):
        p = self.write(tmp_path, f"y,g,a,b\n1.0,1,1,0\n\n{cell},1,0,1\n")
        with pytest.raises(ParseError, match="non-finite value .* column 'y'") as exc:
            load_csv(p, self.SCHEMA)
        assert exc.value.row == 3   # the blank row is counted

    def test_non_finite_x_cell_reports_row(self, tmp_path):
        p = self.write(tmp_path, "y,g,a,b\n1.0,1,1,0\n2.0,1,0,nan\n")
        with pytest.raises(ParseError, match="non-finite value 'nan' in column 'b'") as exc:
            load_csv(p, self.SCHEMA)
        assert exc.value.row == 2

    def test_cell_past_the_header_reports_row(self, tmp_path):
        """An empty trailing cell is accepted; a non-blank one fails at its row."""
        p = self.write(tmp_path, "y,g,a,b\n1.0,A,1,0,\n2.0,B,0,1, \n")
        assert load_csv(p, self.SCHEMA).n == 2
        p = self.write(tmp_path, "y,g,a,b\n1.0,A,1,0,\n\n2.0,B,0,1,7\n")
        with pytest.raises(ParseError, match="cell '7' beyond the header's 4 columns") as exc:
            load_csv(p, self.SCHEMA)
        assert exc.value.row == 3

    def test_empty_file(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(EmptyDataError):
            load_csv(p, self.SCHEMA)

    def test_header_only(self, tmp_path):
        p = self.write(tmp_path, "y,g,a,b\n")
        with pytest.raises(EmptyDataError):
            load_csv(p, self.SCHEMA)


def _radon_csv(tmp_path, rows):
    p = tmp_path / "radon.csv"
    lines = ["county,floor,log_radon,log_uranium"]
    lines += [",".join(str(v) for v in r) for r in rows]
    p.write_text("\n".join(lines) + "\n")
    return p


def _synthetic_radon(tmp_path, rng, n_counties=5, rows_per=6, all_basement_in=()):
    rows = []
    for c in range(n_counties):
        u = round(float(rng.normal()), 4)
        for i in range(rows_per):
            floor = 0 if (c in all_basement_in or i % 3 != 2) else 1
            rows.append((f"C{c}", floor, round(float(rng.normal()), 4), u))
    return _radon_csv(tmp_path, rows)


class TestRadonDesign:
    def test_m0_two_columns(self, tmp_path, rng):
        p = _synthetic_radon(tmp_path, rng)
        raw = load_radon_csv(p)
        data, meta = build_radon_design(raw, "M0")
        assert data.d == 2
        # basement and first-floor indicators sum to one in every row
        assert np.allclose(data.x.sum(axis=1), 1.0)
        assert meta["x_labels"] == ["basement", "first_floor"]

    def test_m2_index_columns(self, tmp_path, rng):
        p = _synthetic_radon(tmp_path, rng)
        raw = load_radon_csv(p)
        data, meta = build_radon_design(raw, "M2")
        J = data.J
        assert data.d == J + 2
        assert np.allclose(data.x[:, :J].sum(axis=1), 1.0)

    def test_m3_drops_empty_first_floor_columns(self, tmp_path, rng):
        p = _synthetic_radon(tmp_path, rng, all_basement_in=(1, 3))
        raw = load_radon_csv(p)
        data, meta = build_radon_design(raw, "M3")
        assert meta["dropped_columns"] == ["first_floor:C1", "first_floor:C3"]
        assert data.d == 2 * data.J - 2
        # every row activates exactly one retained column
        assert np.allclose(data.x.sum(axis=1), 1.0)

    def test_m5_group_design(self, tmp_path, rng):
        p = _synthetic_radon(tmp_path, rng)
        raw = load_radon_csv(p)
        data, meta = build_radon_design(raw, "M5")
        assert meta["family"] == "GeneralMultilevel"
        assert data.m == 2
        assert np.allclose(data.z.sum(axis=1), 1.0)

    def test_response_is_standardized(self, tmp_path, rng):
        p = _synthetic_radon(tmp_path, rng)
        raw = load_radon_csv(p)
        data, _ = build_radon_design(raw, "M1")
        assert abs(data.y.mean()) < 1e-12
        assert abs(data.y.std(ddof=1) - 1.0) < 1e-12

    def test_bad_floor_value(self, tmp_path):
        p = _radon_csv(tmp_path, [("A", 2, 0.5, 0.1), ("A", 0, 0.3, 0.1)])
        with pytest.raises(ParseError):
            load_radon_csv(p)

    def test_fractional_floor_reports_row(self, tmp_path):
        """A fractional floor fails at its own row, not truncated to 0 or 1;
        the row number counts blank rows, as load_csv's do."""
        p = tmp_path / "radon.csv"
        p.write_text("county,floor,log_radon,log_uranium\n"
                     "A,0,0.5,0.1\n\nA,0.5,0.3,0.1\nB,1.7,0.2,0.4\nB,0,0.1,0.4\n")
        with pytest.raises(ParseError, match="floor must be 0 or 1") as exc:
            load_radon_csv(p)
        assert exc.value.row == 3

    def test_non_finite_cell_reports_row(self, tmp_path):
        p = _radon_csv(tmp_path, [("A", 0, 0.5, 0.1), ("A", 1, "inf", 0.1)])
        with pytest.raises(ParseError, match="non-finite value 'inf' in column 'log_radon'") as exc:
            load_radon_csv(p)
        assert exc.value.row == 2

    def test_counties_read_as_written(self, tmp_path):
        p = tmp_path / "radon.csv"
        p.write_text("county,floor,log_radon,log_uranium\n B ,0,0.5,0.1\n\nA,1,0.3,0.2\nB,1,0.1,0.1\n")
        raw = load_radon_csv(p)
        assert raw.county == ("B", "A", "B")
        assert raw.floor.dtype == np.int64 and list(raw.floor) == [0, 1, 1]
        assert list(raw.log_radon) == [0.5, 0.3, 0.1]
        assert list(raw.log_uranium) == [0.1, 0.2, 0.1]


_GENERIC_SCHEMA = {"y": "y", "group": "g", "x": ["a"], "z": ["b"]}

# Each file's outcome: the arrays it reads to, bit for bit, or the error
# (type, message, row) it raises.  A file named radon_* is read by
# load_radon_csv, any other by load_csv with _GENERIC_SCHEMA.
_READER_CASES = {
    "quoted_numbers": (
        'y,g,a,b\n"1.5",A,"2",3\n2.25,"B",1,"-4e-3"\n',
        {"y": [1.5, 2.25], "x": [[2.0], [1.0]], "z": [[3.0], [-0.004]], "group_of": [1, 2]},
    ),
    "padded_cells": (
        "y,g,a,b\n 1.5 , A ,  2,3 \n2.0,B\t,1 , -0.5\n",
        {"y": [1.5, 2.0], "x": [[2.0], [1.0]], "z": [[3.0], [-0.5]], "group_of": [1, 2]},
    ),
    "blank_rows_counted": (
        "y,g,a,b\n\n1.0,A,1,0\n  , ,,\n\n2.0,B,0,bad\n",
        (ParseError, "row 5: non-numeric value 'bad' in column 'b'", 5),
    ),
    "blank_rows_then_valid": (
        "y,g,a,b\n\n1.0,A,1,0\n , \n2.0,B,0,1\n\n",
        {"y": [1.0, 2.0], "x": [[1.0], [0.0]], "z": [[0.0], [1.0]], "group_of": [1, 2]},
    ),
    "underscored_number": (
        "y,g,a,b\n1_000,A,1,0\n2.0,B,0,1\n",
        {"y": [1000.0, 2.0], "x": [[1.0], [0.0]], "z": [[0.0], [1.0]], "group_of": [1, 2]},
    ),
    "nan": (
        "y,g,a,b\n1.0,A,1,0\n2.0,B,nan,1\n",
        (ParseError, "row 2: non-finite value 'nan' in column 'a'", 2),
    ),
    "inf": (
        "y,g,a,b\n1.0,A,1,0\ninf,B,0,1\n",
        (ParseError, "row 2: non-finite value 'inf' in column 'y'", 2),
    ),
    "minus_inf": (
        "y,g,a,b\n1.0,A,1,0\n2.0,B,0,-inf\n",
        (ParseError, "row 2: non-finite value '-inf' in column 'b'", 2),
    ),
    "short_row": (
        "y,g,a,b\n1.0,A,1,0\n2.0,B,0\n",
        (ParseError, "row 2: missing value for column 'b'", 2),
    ),
    "extra_trailing_column": (
        "y,g,a,b\n1.0,A,1,0,\n2.0,B,0,1,7\n",
        (ParseError, "row 2: cell '7' beyond the header's 4 columns", 2),
    ),
    "blank_group_label": (
        "y,g,a,b\n1.0,A,1,0\n2.0, ,0,1\n",
        (ParseError, "row 2: blank value in column 'g'", 2),
    ),
    "blank_numeric_cell": (
        "y,g,a,b\n1.0,A,1,0\n2.0,B,,1\n",
        (ParseError, "row 2: blank value in column 'a'", 2),
    ),
    "radon_floor_half": (
        "county,floor,log_radon,log_uranium\nA,0,0.5,0.1\n\nA,0.5,0.3,0.1\n",
        (ParseError, "row 3: floor must be 0 or 1", 3),
    ),
    "radon_valid": (
        "county,floor,log_radon,log_uranium\n A ,0,0.5,0.1\nB,1.0,\"0.3\",0.2\n",
        {"county": ("A", "B"), "floor": [0, 1], "log_radon": [0.5, 0.3], "log_uranium": [0.1, 0.2]},
    ),
    # The first bad row is reported, even when a later row fails another way.
    "two_bad_rows": (
        "y,g,a,b\n1.0,A,1,0\n2.0,B,nan,1\n3.0,C,0,1\n4.0,D,bad,1\n",
        (ParseError, "row 2: non-finite value 'nan' in column 'a'", 2),
    ),
    # Finite cells whose sum overflows are valid.
    "sum_overflows": (
        "y,g,a,b\n1e308,A,1e308,0\n",
        {"y": [1e308], "x": [[1e308]], "z": [[0.0]], "group_of": [1]},
    ),
    # A blank first line is an empty header, not an empty file.
    "blank_first_line": (
        "\ny,g,a,b\n1.0,A,1,0\n",
        (SchemaError, "column 'y' not found in header []", None),
    ),
}

_INTEGER_FIELDS = ("group_of", "floor")


@pytest.mark.parametrize("name", sorted(_READER_CASES))
def test_reader_outcome(tmp_path, name):
    """Each file reads to bitwise-equal arrays and labels, or to the same error type, message and row."""
    text, expected = _READER_CASES[name]
    p = tmp_path / "d.csv"
    p.write_text(text)
    if name.startswith("radon"):
        load = load_radon_csv
    else:
        load = lambda path: load_csv(path, _GENERIC_SCHEMA)
    if isinstance(expected, tuple):
        kind, message, row = expected
        with pytest.raises(ValueError) as exc:
            load(p)
        assert type(exc.value) is kind
        assert str(exc.value) == message and getattr(exc.value, "row", None) == row
        return
    got = load(p)
    for field, values in expected.items():
        actual = getattr(got, field)
        if field == "county":
            assert actual == values
            continue
        want = np.array(values, dtype=np.int64 if field in _INTEGER_FIELDS else float)
        assert actual.dtype == want.dtype and actual.shape == want.shape, field
        assert actual.tobytes() == want.tobytes(), field
