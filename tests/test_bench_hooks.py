"""The benchmark's per-layer hooks (perfbench/spans.py) still find what they wrap.

A renamed hook target or a reordered ``_mh_sweeps`` signature would make
the traced benchmark miscount without failing; these counters catch it.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from mlevidence import likelihood_core, posterior_analysis, smc_engine

from conftest import general_spec, lm_spec, make_dataset, simple_spec

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_count_sampler_and_likelihood(rng):
    spans = _load_spans()
    data = make_dataset(rng, 60, 2, 0, 3)
    stats = likelihood_core.precompute(data)
    spec = simple_spec(2)
    # Fewer groups than coefficients: the likelihood takes its low-rank form.
    low_rank = likelihood_core.precompute(make_dataset(rng, 60, 5, 0, 2))
    low_rank_spec = simple_spec(5)
    system = likelihood_core.posterior_system(
        low_rank, low_rank_spec, likelihood_core.CoefPrior.of(low_rank_spec))
    assert system(np.ones((1, 2))).V is not None
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        _, cloud = smc_engine.run_smc(stats, spec, "integrated", 50, seed=3)
        posterior_analysis.recover_beta_posterior(cloud, stats, spec, "integrated")
        posterior_analysis.aic(data, spec)
        counts = dict(tracer.counts)
        _, low_rank_cloud = smc_engine.run_smc(low_rank, low_rank_spec, "integrated", 50, seed=3)
        # The single-level profile is closed form: one call, no search.
        posterior_analysis.aic(data, lm_spec(2))
    finally:
        tracer.uninstall()
    sweeps = smc_engine._SWEEPS_BY_MODE["integrated"]
    assert counts["smc_engine.mh_proposals"] == sweeps * 50 * cloud.stage
    assert counts["likelihood_core.integrated_calls"] > 0
    assert counts["posterior_analysis.aic_profile_evals"] > 0
    assert counts["smc_engine.stages"] == cloud.stage
    assert counts["smc_engine.ess_evals"] > 0
    assert tracer.counts["likelihood_core.integrated_calls"] > counts["likelihood_core.integrated_calls"]
    assert tracer.counts["smc_engine.stages"] == cloud.stage + low_rank_cloud.stage
    assert (tracer.counts["posterior_analysis.aic_profile_evals"]
            > counts["posterior_analysis.aic_profile_evals"])


def test_layer_hooks_count_general_multilevel_rows(rng):
    """GeneralMultilevel rows reach the likelihood through the wrapped
    ``batch_log_integrated``: one call for the initial cloud, then one per
    stage for the proposals of all its MH sweeps, each sweep proposing a
    move for every particle."""
    spans = _load_spans()
    stats = likelihood_core.precompute(make_dataset(rng, 40, 2, 2, 3))
    spec = general_spec(2, m=2, sampled_rho=True)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        _, cloud = smc_engine.run_smc(stats, spec, "integrated", 50, seed=3)
    finally:
        tracer.uninstall()
    sweeps = smc_engine._SWEEPS_BY_MODE["integrated"]
    assert tracer.counts["smc_engine.stages"] == cloud.stage
    assert tracer.counts["likelihood_core.integrated_calls"] == 1 + cloud.stage
    assert tracer.counts["likelihood_core.integrated_rows"] == 50 * (1 + sweeps * cloud.stage)


def test_layer_hooks_count_one_likelihood_call_per_stage_for_all_runs(rng):
    """The runs of an evidence estimate share every likelihood call: one for
    the initial clouds, then one per stage, for all MH sweeps' proposals,
    while any run is left.  A run makes no MH sweeps after its last stage,
    so each run sweeps one stage fewer than it has."""
    spans = _load_spans()
    stats = likelihood_core.precompute(make_dataset(rng, 60, 2, 0, 3))
    spec = simple_spec(2)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        est = smc_engine.estimate_evidence(stats, spec, "integrated", 3, 50, 11)
    finally:
        tracer.uninstall()
    sweeps = smc_engine._SWEEPS_BY_MODE["integrated"]
    stages = est.stage_counts
    runs = len(stages)
    assert tracer.counts["smc_engine.mh_proposals"] == sweeps * 50 * (sum(stages) - runs)
    assert tracer.counts["likelihood_core.integrated_calls"] == 1 + (max(stages) - 1)
    assert tracer.counts["likelihood_core.integrated_rows"] == 50 * (runs + sweeps * (sum(stages) - runs))
    assert tracer.counts["smc_engine.runs"] == 0   # the span counts run_smc calls only


def test_benchmark_selftest_passes():
    """perfbench/selftest.py, run from the repository root: every benchmark check
    passes the package's own output and rejects a perturbed value."""
    root = _SPANS.parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    checks = [line for line in lines[:-1] if line.strip()]
    assert checks and all(line.startswith("ok ") for line in checks), done.stdout
    assert lines[-1] == f"{len(checks)}/{len(checks)} checks behave", done.stdout
