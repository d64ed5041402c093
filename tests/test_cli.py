import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlevidence.cli import _write_dataset_csv, build_parser, main, radon_model_spec
from mlevidence.data_model import Dataset
from mlevidence.model_spec import save
from mlevidence.posterior_analysis import AICResult

from conftest import general_spec, make_dataset
from conftest import rng as _rng_fixture  # noqa: F401 (fixture re-export)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def radon_csv(tmp_path_factory):
    rng = np.random.default_rng(12)
    p = tmp_path_factory.mktemp("radon") / "radon.csv"
    lines = ["county,floor,log_radon,log_uranium"]
    for c in range(6):
        u = round(float(rng.normal()), 4)
        for i in range(10):
            floor = 0 if (c == 2 or i % 3 != 1) else 1  # county 2 has no first floor
            lines.append(f"C{c},{floor},{round(float(rng.normal()), 4)},{u}")
    p.write_text("\n".join(lines) + "\n")
    return p


class TestSimulate:
    def test_writes_all_artifacts(self, sim_dir):
        for name in ("D0.csv", "D1.csv", "D2.csv", "D3.csv", "true_params.json", "manifest.json"):
            assert (sim_dir / name).exists()

    def test_row_counts(self, sim_dir):
        with open(sim_dir / "D0.csv") as fh:
            assert sum(1 for _ in fh) == 1001

    def test_byte_identical_rerun(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["simulate", "--out", str(out2), "--seed", "5"]) == 0
        for name in ("D0.csv", "D1.csv", "D2.csv", "D3.csv", "true_params.json"):
            assert (sim_dir / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seed_same_schema_different_y(self, sim_dir, tmp_path):
        out2 = tmp_path / "other"
        assert main(["simulate", "--out", str(out2), "--seed", "6"]) == 0
        a = (sim_dir / "D0.csv").read_text().splitlines()
        b = (out2 / "D0.csv").read_text().splitlines()
        assert a[0] == b[0]
        assert a[1] != b[1]

    def test_manifest_fields(self, sim_dir):
        man = json.loads((sim_dir / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["seed"] == 5
        assert "numpy" in man["versions"]
        assert len(man["config_digest"]) == 64


class TestEvidence:
    def test_json_payload_schema(self, sim_dir, tmp_path):
        out = tmp_path / "ev.json"
        rc = main([
            "evidence", "--data", str(sim_dir / "D3.csv"), "--model", "sim:M3",
            "--particles", "200", "--runs", "2", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("model", "mode", "runs", "mean", "std", "particles", "stages", "forced_steps",
                    "seed", "deviations", "analytic_log_evidence", "manifest_digest"):
            assert key in payload, key
        assert len(payload["runs"]) == 2
        assert payload["mode"] == "integrated"
        # SMC near the closed form even at desk-scale particle counts
        assert abs(payload["mean"] - payload["analytic_log_evidence"]) < 1.0

    def test_invalid_mode_exits_nonzero(self, sim_dir):
        with pytest.raises(SystemExit) as exc:
            main([
                "evidence", "--data", str(sim_dir / "D0.csv"), "--model", "sim:M0",
                "--mode", "bogus",
            ])
        assert exc.value.code != 0

    def test_idempotent_payload(self, sim_dir, tmp_path):
        args = [
            "evidence", "--data", str(sim_dir / "D0.csv"), "--model", "sim:M0",
            "--particles", "128", "--runs", "2", "--seed", "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deviation_flags_for_m1(self, sim_dir, tmp_path):
        out = tmp_path / "m1.json"
        assert main([
            "evidence", "--data", str(sim_dir / "D1.csv"), "--model", "sim:M1",
            "--particles", "128", "--runs", "1", "--seed", "2", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["deviations"]

    def test_forced_steps_reach_the_printed_line(self, tmp_path, capsys):
        """The stall-guard spec of ``TestForcedSteps``: the printed line names
        the forced steps per run exactly when the JSON has one."""
        spec = general_spec(2, m=3, sampled_rho=True, pattern=((0, 1), (1, 2), (0, 2)))
        save(spec, tmp_path / "spec.yaml")
        _write_dataset_csv(tmp_path / "data.csv", make_dataset(np.random.default_rng(5), 60, 2, 3, 4))
        named = []
        for seed in (0, 3):
            out = tmp_path / f"ev{seed}.json"
            assert main([
                "evidence", "--data", str(tmp_path / "data.csv"), "--model", str(tmp_path / "spec.yaml"),
                "--particles", "200", "--runs", "2", "--seed", str(seed), "--out", str(out),
            ]) == 0
            forced = json.loads(out.read_text())["forced_steps"]
            line = capsys.readouterr().out.strip()
            if any(forced):
                assert line.endswith(f"; forced ladder steps per run: {' '.join(map(str, forced))}")
                named.append(seed)
            else:
                assert "forced" not in line
        assert named


class TestCompare:
    def test_partial_failure_isolated(self, sim_dir, tmp_path):
        out = tmp_path / "cmp.json"
        rc = main([
            "compare", "--data", str(sim_dir / "D0.csv"),
            "--models", "sim:M0", "sim:M9", "--particles", "128", "--runs", "2",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 1  # flagged error present
        payload = json.loads(out.read_text())
        by_model = {r["model"]: r for r in payload["table"]}
        assert by_model["sim:M0"]["error"] is None
        assert by_model["sim:M0"]["evidence_rank"] == 1
        assert by_model["sim:M9"]["error"]
        assert by_model["sim:M9"]["log_evidence"] is None

    def test_single_model_no_bayes_factors(self, sim_dir, tmp_path):
        out = tmp_path / "one.json"
        rc = main([
            "compare", "--data", str(sim_dir / "D0.csv"), "--models", "sim:M0",
            "--particles", "128", "--runs", "2", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["table"]) == 1
        assert payload["pairwise_log_bayes_factors"] == []

    def test_csv_output_with_ranks_and_aic(self, sim_dir, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--data", str(sim_dir / "D0.csv"),
            "--models", "sim:M0", "sim:M3", "--particles", "128", "--runs", "2",
            "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["model"] for r in rows} == {"sim:M0", "sim:M3"}
        assert {r["evidence_rank"] for r in rows} == {"1", "2"}
        assert all(r["aic"] for r in rows)
        payload = json.loads(open(str(out) + ".json").read())
        assert len(payload["pairwise_log_bayes_factors"]) == 1

    def test_aic_convergence_reaches_outputs(self, sim_dir, tmp_path, monkeypatch, capsys):
        from mlevidence import cli

        monkeypatch.setattr(cli, "aic", lambda data, spec, stats=None: AICResult(
            aic=10.0, k=3, max_loglik=-2.0, theta_hat={}, converged=False,
        ))
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--data", str(sim_dir / "D0.csv"), "--models", "sim:M0",
            "--particles", "128", "--runs", "2", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            assert [r["aic_converged"] for r in csv.DictReader(fh)] == ["False"]
        payload = json.loads(open(str(out) + ".json").read())
        assert payload["table"][0]["aic_converged"] is False
        assert "not converged" in capsys.readouterr().out


class TestRadonBuiltins:
    def test_model_spec_families(self):
        assert radon_model_spec("M0", 2).family == "LinearModel"
        assert radon_model_spec("M4", 3).family == "SimpleMultilevel"
        spec5 = radon_model_spec("M5", 3)
        assert spec5.family == "GeneralMultilevel"
        assert not spec5.corr_prior.is_fixed

    def test_evidence_on_synthetic_radon(self, radon_csv, tmp_path):
        out = tmp_path / "radon_ev.json"
        rc = main([
            "evidence", "--data", str(radon_csv), "--model", "radon:M1",
            "--particles", "128", "--runs", "2", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert np.isfinite(payload["mean"])

    def test_fit_export(self, radon_csv, tmp_path):
        out = tmp_path / "fits.csv"
        rc = main([
            "fit-export", "--data", str(radon_csv), "--model", "radon:M3",
            "--particles", "128", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12  # 6 counties x 2 floor levels
        absent = [r for r in rows if r["present"] == "False"]
        assert len(absent) == 1 and absent[0]["county"] == "C2"
        present = [r for r in rows if r["present"] == "True"]
        assert all(r["mean"] and r["sd"] for r in present)

    def test_fit_export_multilevel(self, radon_csv, tmp_path):
        out = tmp_path / "fits_m4.csv"
        rc = main([
            "fit-export", "--data", str(radon_csv), "--model", "radon:M4",
            "--particles", "128", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # county deviations break complete pooling
        means_t0 = {r["mean"] for r in rows if r["t"] == "0"}
        assert len(means_t0) > 1

    def test_fit_export_rejects_sim_models(self, sim_dir, tmp_path):
        rc = main([
            "fit-export", "--data", str(sim_dir / "D0.csv"), "--model", "sim:M0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


def test_readme_command_lines_parse():
    """Every ``mlevidence`` line of the README's sh blocks is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip().startswith("mlevidence ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])


class TestInputErrors:
    """A bad input file is one ``mlevidence: error:`` line on stderr and status 2."""

    BAD = {
        "nan_cell": ("county,floor,log_radon,log_uranium\nA,0,0.5,0.1\nA,1,nan,0.1\n",
                     "row 2: non-finite value 'nan' in column 'log_radon'"),
        "missing_column": ("county,floor,log_radon\nA,0,0.5\n",
                           "column 'log_uranium' not found in header"),
        "missing_file": (None, "No such file or directory"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("command", ["evidence", "fit-export"])
    def test_bad_data_exits_2_with_one_line(self, tmp_path, capsys, command, case):
        text, message = self.BAD[case]
        data = tmp_path / "radon.csv"
        if text is not None:
            data.write_text(text)
        argv = [command, "--data", str(data), "--model", "radon:M0", "--particles", "50",
                "--out", str(tmp_path / "out")]
        if command == "evidence":
            argv += ["--runs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("mlevidence: error: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, model, message", [
        ("evidence", "sim:M9", "unknown model id 'M9'"),
        ("evidence", "radon:M9", "unknown radon model id 'M9'"),
        ("fit-export", "radon:M9", "unknown radon model id 'M9'"),
    ])
    def test_unknown_builtin_id_exits_2_with_one_line(self, tmp_path, capsys, command, model,
                                                      message):
        data = tmp_path / "radon.csv"
        data.write_text("county,floor,log_radon,log_uranium\nA,0,0.5,0.1\nA,1,0.3,0.1\n")
        argv = [command, "--data", str(data), "--model", model, "--particles", "50",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"mlevidence: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_compare_keeps_an_error_row_per_model(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--data", str(tmp_path / "absent.csv"),
                   "--models", "radon:M0", "radon:M1", "--particles", "50", "--runs", "1",
                   "--out", str(out)])
        assert rc == 1
        table = json.loads(out.read_text())["table"]
        assert [r["model"] for r in table] == ["radon:M0", "radon:M1"]
        assert len({r["error"] for r in table}) == 1
        assert table[0]["error"].startswith("FileNotFoundError: ")
        assert "ERROR" in capsys.readouterr().out


def test_compare_reads_its_data_file_once(sim_dir, tmp_path, monkeypatch):
    """Every model of a compare is fitted to one read of the file, and AIC
    reuses the evidence run's statistics."""
    from mlevidence import cli

    loads, aic_stats = [], []
    load_csv, aic = cli.load_csv, cli.aic
    monkeypatch.setattr(cli, "load_csv", lambda *args: loads.append(args) or load_csv(*args))

    def kept_aic(data, spec, **kwargs):
        aic_stats.append(kwargs.get("stats"))
        return aic(data, spec, **kwargs)

    monkeypatch.setattr(cli, "aic", kept_aic)
    assert main(["compare", "--data", str(sim_dir / "D0.csv"), "--models", "sim:M0", "sim:M3",
                 "--particles", "50", "--runs", "1", "--out", str(tmp_path / "cmp.json")]) == 0
    assert len(loads) == 1
    assert len(aic_stats) == 2 and all(s is not None for s in aic_stats)


def _oracle_dataset_csv(data, t=None):
    """The dataset CSV as ``csv.writer`` writes it, one ``repr`` cell at a time."""
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["y", "group"] + [f"x{i}" for i in range(data.d)] + [f"z{i}" for i in range(data.m)]
    writer.writerow(header + (["t"] if t is not None else []))
    for i in range(data.n):
        row = [repr(float(data.y[i])), str(int(data.group_of[i]))]
        row += [repr(float(v)) for v in data.x[i]] + [repr(float(v)) for v in data.z[i]]
        if t is not None:
            row.append(repr(float(t[i])))
        writer.writerow(row)
    return buf.getvalue()


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0, -3.0, 1e16, 2.0 ** 53]),
    st.integers(-10 ** 6, 10 ** 6).map(float),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 6), d=st.integers(1, 3), m=st.integers(0, 2), with_t=st.booleans(),
       data=st.data())
def test_property_dataset_csv_matches_csv_writer(tmp_path, n, d, m, with_t, data):
    cells = data.draw(st.lists(_CELLS, min_size=n * (1 + d + m + 1), max_size=n * (1 + d + m + 1)))
    v = np.array(cells).reshape(n, 1 + d + m + 1)
    groups = np.arange(n) % data.draw(st.integers(1, n)) + 1
    ds = Dataset(y=v[:, 0], x=v[:, 1:1 + d], z=v[:, 1 + d:1 + d + m], group_of=groups)
    t = v[:, -1] if with_t else None
    path = tmp_path / "d.csv"
    _write_dataset_csv(path, ds, t=t)
    assert path.read_bytes() == _oracle_dataset_csv(ds, t).encode("utf-8")


def test_dataset_csv_special_floats_match_csv_writer(tmp_path):
    """Signed zero, subnormals, 1e300 and integer-valued floats keep their csv.writer text."""
    y = np.array([-0.0, 5e-324, 1e300, 3.0])
    x = np.array([[0.0, -2.5e-310], [1e300, -1e300], [2.0 ** 53, 1.0], [-7.0, 1e16]])
    ds = Dataset(y=y, x=x, z=np.zeros((4, 1)) - 0.0, group_of=[1, 2, 1, 3])
    path = tmp_path / "d.csv"
    _write_dataset_csv(path, ds, t=np.array([0.5, -0.0, 1.0, 5e-324]))
    text = path.read_text()
    assert text == _oracle_dataset_csv(ds, np.array([0.5, -0.0, 1.0, 5e-324]))
    assert text.splitlines()[1].startswith("-0.0,1,0.0,-2.5e-310,")
