import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from mlevidence.cli import build_parser, main, radon_model_spec
from mlevidence.posterior_analysis import AICResult

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
        for key in ("model", "mode", "runs", "mean", "std", "particles", "stages",
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

        monkeypatch.setattr(cli, "aic", lambda data, spec: AICResult(
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
