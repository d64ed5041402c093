"""Which SciPy subpackages each CLI command loads, each in a fresh interpreter.

``simulate``, ``evidence`` and ``fit-export`` run on NumPy alone (plus
PyYAML for spec files).  SciPy's ``linalg``, ``special``, ``optimize`` and
``stats`` load only for ``compare``'s AIC search and the quadrature oracle,
so that a later top-level import cannot quietly bring the one-second SciPy
start-up back to every command.  Importing the CLI does not load
``importlib.metadata`` either: the manifest's version is the package's own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlevidence

from test_cli import radon_csv, sim_dir  # noqa: F401 (fixture re-export)

SRC = str(Path(mlevidence.__file__).resolve().parents[1])
HEAVY = {"scipy.linalg", "scipy.special", "scipy.optimize", "scipy.stats"}

# Runs ``mlevidence.cli.main(argv)`` (or only imports the CLI, or only
# ``import_only``) and prints the exit code and the modules loaded, cut to
# their first two components.
_PROBE = """
import json, sys
argv, import_only = json.loads(sys.argv[1])
if import_only:
    __import__(import_only)
    rc = 0
else:
    from mlevidence.cli import main
    rc = main(argv) if argv else 0
print(json.dumps([rc, sorted({".".join(m.split(".")[:2]) for m in sys.modules})]))
"""


def loaded_modules(argv=(), import_only=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([[str(a) for a in argv], import_only])],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(loaded)


def scipy_subpackages(argv=(), import_only=None):
    return {m for m in loaded_modules(argv, import_only) if m.startswith("scipy.")}


def test_import_cli_loads_no_scipy_subpackage():
    assert not scipy_subpackages() & HEAVY


def test_import_cli_loads_no_importlib_metadata():
    """The manifest's version is ``mlevidence.__version__``, not a distribution lookup."""
    assert "importlib.metadata" not in loaded_modules()


def test_simulate_loads_no_scipy_subpackage(tmp_path):
    assert not scipy_subpackages(["simulate", "--out", tmp_path, "--seed", 1]) & HEAVY


@pytest.mark.parametrize("case", ["sim:M3", "radon:M5"])
def test_evidence_loads_no_scipy_subpackage(case, sim_dir, radon_csv, tmp_path):  # noqa: F811
    data = sim_dir / "D3.csv" if case.startswith("sim") else radon_csv   # radon:M5 samples rho
    argv = ["evidence", "--data", data, "--model", case, "--particles", 50, "--runs", 2,
            "--seed", 4, "--out", tmp_path / "ev.json"]
    assert not scipy_subpackages(argv) & HEAVY


def test_fit_export_loads_no_scipy_subpackage(radon_csv, tmp_path):  # noqa: F811
    argv = ["fit-export", "--data", radon_csv, "--model", "radon:M5", "--particles", 50,
            "--seed", 2, "--out", tmp_path / "fits.csv"]
    assert not scipy_subpackages(argv) & HEAVY


def test_compare_loads_only_what_the_aic_search_needs(sim_dir, tmp_path):  # noqa: F811
    argv = ["compare", "--data", sim_dir / "D0.csv", "--models", "sim:M0", "sim:M3",
            "--particles", 50, "--runs", 2, "--seed", 4, "--out", tmp_path / "table.json"]
    loaded = scipy_subpackages(argv)
    assert "scipy.optimize" in loaded
    assert loaded <= scipy_subpackages(import_only="scipy.optimize")
