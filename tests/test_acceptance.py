"""Release acceptance suite: one test (or small group) per release criterion.

These are end-to-end statistical checks, much heavier than the per-module
suites; the whole file takes tens of minutes on a single CPU.  Each test
states its criterion and tolerance in the docstring.

The radon reproduction test requires the radon measurements CSV, which is
not distributable with this repository; point ``MLEVIDENCE_RADON_CSV`` at a
copy (columns county, floor, log_radon, log_uranium) to enable it.
"""

import os
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import general_spec, lm_spec, nig_spec, simple_spec
from mlevidence.analytic_evidence import nig_log_evidence, quadrature_log_integrated
from mlevidence.cli import RADON_MODEL_IDS, radon_model_spec
from mlevidence.data_model import Dataset, build_radon_design, load_radon_csv
from mlevidence.likelihood_core import (
    ThetaPoint,
    batch_log_integrated,
    precompute,
    theta_row,
)
from mlevidence.model_spec import IGPrior, ModelSpec
from mlevidence.posterior_analysis import aic, mahalanobis, recover_beta_posterior
from mlevidence.simulation_study import (
    DATASET_IDS,
    MODEL_IDS,
    SimConfig,
    builtin_model_specs,
    generate_dataset,
)
from mlevidence.smc_engine import derive_run_seed, estimate_evidence, run_smc

_CFG = SimConfig()
GENERATOR_OF = {"D0": "M0", "D1": "M1", "D2": "M2", "D3": "M3"}
MASTER_SEEDS = tuple(range(8))


@lru_cache(maxsize=None)
def _sim_suite(master_seed):
    """All four study datasets drawn sequentially from one master stream."""
    rng = np.random.default_rng(master_seed)
    return {which: generate_dataset(which, _CFG, rng) for which in DATASET_IDS}


# ---------------------------------------------------------------------------
# Criterion 1: closed-form conjugate evidence vs integrated-mode SMC.
#
# The published reference datasets are not distributable, so this uses the
# sanctioned fallback: self-generated datasets, requiring SMC-vs-analytic
# agreement |mean - analytic| <= 0.2 with run-std <= 0.1 over 8 runs x 2000
# particles, in under 2 minutes per dataset.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", DATASET_IDS)
def test_criterion1_conjugate_evidence_vs_smc(which):
    data, _ = _sim_suite(0)[which]
    stats = precompute(data)
    spec = builtin_model_specs("M3")
    analytic = nig_log_evidence(stats, spec)
    assert np.isfinite(analytic)

    t0 = time.monotonic()
    est = estimate_evidence(stats, spec, "integrated", 8, 2000, master_seed=101)
    elapsed = time.monotonic() - t0

    assert abs(est.mean - analytic) <= 0.2, (est.mean, analytic)
    assert est.std <= 0.1, est.std
    assert elapsed <= 120.0, elapsed


# ---------------------------------------------------------------------------
# Criterion 2: model recovery.  On self-generated D0-D3 (n=1000, J=15) the
# generating model must attain the highest integrated-mode evidence, for
# each dataset, in at least 7 of 8 master seeds.
#
# A cheap single-run pass ranks the four models; any model within 1.5 nats
# of the leader is then re-estimated with more runs/particles so that
# near-ties are decided by estimates whose standard error is well below the
# remaining gap, rather than by single-run noise.
# ---------------------------------------------------------------------------

def _evidence_for(stats, mid, *, runs, particles, master_seed):
    spec = builtin_model_specs(mid)
    return estimate_evidence(
        stats, spec, "integrated", runs, particles, master_seed=master_seed
    ).mean


@pytest.mark.parametrize("which", DATASET_IDS)
def test_criterion2_model_recovery_diagonal(which):
    misses = []
    for seed in MASTER_SEEDS:
        stats = precompute(_sim_suite(seed)[which][0])
        ev = {}
        for mid in MODEL_IDS:
            particles = 150 if mid == "M2" else 500
            ev[mid] = _evidence_for(
                stats, mid, runs=1, particles=particles, master_seed=1000 + seed
            )
        best = max(ev, key=ev.get)
        contenders = [m for m in ev if ev[best] - ev[m] < 1.5]
        if len(contenders) > 1:
            for mid in contenders:
                runs, particles = (4, 300) if mid == "M2" else (6, 1500)
                ev[mid] = _evidence_for(
                    stats, mid, runs=runs, particles=particles,
                    master_seed=5000 + seed,
                )
            best = max(ev, key=ev.get)
        if best != GENERATOR_OF[which]:
            misses.append((seed, best, {m: round(v, 3) for m, v in ev.items()}))
    assert len(misses) <= 1, (which, misses)


# ---------------------------------------------------------------------------
# Criterion 3: variance reduction.  On D1/M1 and D2/M2, the run-to-run
# standard deviation of the evidence over 8 runs must be strictly smaller
# in integrated mode than in full mode, in at least 9 of 10 repetitions of
# the whole comparison (fresh dataset and seeds per repetition).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "which,mid,particles", [("D1", "M1", 128), ("D2", "M2", 64)]
)
def test_criterion3_integrated_mode_reduces_run_variance(which, mid, particles):
    spec = builtin_model_specs(mid)
    wins = 0
    record = []
    for rep in range(10):
        data, _ = generate_dataset(which, _CFG, np.random.default_rng(10_000 + rep))
        stats = precompute(data)
        ei = estimate_evidence(
            stats, spec, "integrated", 8, particles, master_seed=rep
        )
        ef = estimate_evidence(stats, spec, "full", 8, particles, master_seed=rep)
        record.append((ei.std, ef.std))
        wins += ei.std < ef.std
    assert wins >= 9, record


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalence.  Every integrated-likelihood evaluator
# matches the deterministic quadrature oracle within 1e-6 absolute on at
# least 200 randomized desk-scale instances (n <= 5, latent dimension <= 3),
# and the three boundary reductions hold within 1e-10.  Under 1 minute.
# ---------------------------------------------------------------------------

def _desk_data(rng, n, d, m, J):
    y = rng.normal(size=n)
    x = rng.normal(size=(n, d))
    z = rng.normal(size=(n, m)) if m else np.zeros((n, 0))
    group = np.concatenate(
        [np.arange(1, J + 1), rng.integers(1, J + 1, size=n - J)]
    ) if J else np.ones(n, dtype=int)
    return Dataset(y=y, x=x, z=z, group_of=group)


def test_criterion4_randomized_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        fam = int(rng.integers(4))
        s2y = float(rng.uniform(0.3, 2.0))
        if fam == 0:
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d, 6))
            data = _desk_data(rng, n, d, 0, 1)
            spec = lm_spec(d)
            theta = ThetaPoint(sigma2_y=s2y)
        elif fam == 1:
            d = int(rng.integers(1, 3))
            n = int(rng.integers(d, 6))
            data = _desk_data(rng, n, d, 0, 1)
            spec = nig_spec(d, gamma=float(rng.uniform(0.5, 3.0)))
            theta = ThetaPoint(sigma2_y=s2y)
        elif fam == 2:
            J = int(rng.integers(1, 3))
            n = int(rng.integers(max(2, J), 6))
            data = _desk_data(rng, n, 1, 0, J)
            spec = simple_spec(1)
            s2e = float(rng.uniform(0.1, 1.5))
            theta = ThetaPoint(sigma2_y=s2y, sigma2_eta=s2e)
        else:
            n = int(rng.integers(2, 6))
            data = _desk_data(rng, n, 1, 2, 1)
            rho = float(rng.uniform(-0.7, 0.7))
            spec = general_spec(1, m=2, rho=rho)
            variances = rng.uniform(0.2, 1.5, 2)
            theta = ThetaPoint(sigma2_y=s2y, nu=(variances, rho))
        val = batch_log_integrated(precompute(data), spec)(theta_row(theta))[0]
        oracle, _ = quadrature_log_integrated(data, spec, theta)
        worst = max(worst, abs(float(val) - float(oracle)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6, worst
    assert elapsed <= 60.0, elapsed


def test_criterion4_boundary_reductions():
    rng = np.random.default_rng(77)
    # vanishing group variance: shrinkage family degenerates to the plain model
    data = _desk_data(rng, 5, 2, 0, 2)
    stats = precompute(data)
    a = batch_log_integrated(stats, simple_spec(2))(np.array([[0.9, 1e-300]]))[0]
    b = batch_log_integrated(stats, lm_spec(2))(np.array([[0.9]]))[0]
    assert abs(a - b) <= 1e-10

    # scalar group design: the general family degenerates to the shrinkage one
    base = _desk_data(rng, 5, 2, 0, 2)
    data = Dataset(y=base.y, x=base.x, z=np.ones((5, 1)), group_of=base.group_of)
    a = batch_log_integrated(precompute(data), general_spec(2, m=1, pattern=()))(
        np.array([[0.9, 0.5, 0.0]]))[0]
    b = batch_log_integrated(precompute(base), simple_spec(2))(np.array([[0.9, 0.5]]))[0]
    assert abs(a - b) <= 1e-10

    # conjugate prior covariance gamma*sigma2*Sigma equals an unscaled prior
    # evaluated with that covariance
    data = _desk_data(rng, 5, 2, 0, 1)
    stats = precompute(data)
    sigma2, gamma = 0.65, 3.0
    spec_n = nig_spec(2, gamma=gamma)
    spec_l = ModelSpec(
        family="LinearModel", prior_mean=np.zeros(2),
        prior_cov=gamma * sigma2 * 0.7 * np.eye(2), ig_y=IGPrior(3.0, 0.4),
    )
    a = batch_log_integrated(stats, spec_n)(np.array([[sigma2]]))[0]
    b = batch_log_integrated(stats, spec_l)(np.array([[sigma2]]))[0]
    assert abs(a - b) <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 5: radon model-comparison table.  AIC within +/-0.05 (M0/M1) or
# +/-0.5 (M2-M5, optimizer-dependent); integrated-mode evidence means within
# +/-0.5 nats of the reference values; evidence rank order reproduced
# exactly; under 10 minutes total.  Requires the radon CSV (see module
# docstring), otherwise skipped.
# ---------------------------------------------------------------------------

_RADON_AIC = {
    "M0": 2544.17, "M1": 2427.74, "M2": 2469.74,
    "M3": 2496.63, "M4": 2425.21, "M5": 2423.11,
}
_RADON_EVIDENCE = {
    "M0": -1279.87, "M1": -1224.14, "M2": -1263.61,
    "M3": -1270.69, "M4": -1226.93, "M5": -1225.77,
}
_RADON_EVIDENCE_ORDER = ("M1", "M5", "M4", "M2", "M3", "M0")


def _radon_csv_path():
    default = os.path.join(os.path.dirname(__file__), "..", "data", "radon.csv")
    path = os.environ.get("MLEVIDENCE_RADON_CSV", default)
    return path if os.path.exists(path) else None


@pytest.mark.skipif(
    _radon_csv_path() is None,
    reason="radon measurements CSV not available; set MLEVIDENCE_RADON_CSV",
)
def test_criterion5_radon_model_comparison_table():
    t0 = time.monotonic()
    raw = load_radon_csv(_radon_csv_path())
    aics = {}
    evidences = {}
    for mid in RADON_MODEL_IDS:
        data, meta = build_radon_design(raw, mid)
        stats = precompute(data)
        spec = radon_model_spec(mid, data.x.shape[1])
        aics[mid] = aic(data, spec).aic
        evidences[mid] = estimate_evidence(
            stats, spec, "integrated", 8, 2000, master_seed=7
        ).mean
    elapsed = time.monotonic() - t0

    for mid in RADON_MODEL_IDS:
        tol = 0.05 if mid in ("M0", "M1") else 0.5
        assert abs(aics[mid] - _RADON_AIC[mid]) <= tol, (mid, aics)
        assert abs(evidences[mid] - _RADON_EVIDENCE[mid]) <= 0.5, (mid, evidences)
    order = tuple(sorted(evidences, key=evidences.get, reverse=True))
    assert order == _RADON_EVIDENCE_ORDER, (order, evidences)
    assert elapsed <= 600.0, elapsed


# ---------------------------------------------------------------------------
# Criterion 6: coefficient recovery.  For each (dataset, model) pair the
# Mahalanobis distance from the true coefficients to the recovered
# coefficient posterior must be <= in integrated mode than in full mode for
# at least 14 of the 16 pairs, using one master seed.
# ---------------------------------------------------------------------------

def test_criterion6_mahalanobis_ordering():
    suite = _sim_suite(0)
    wins = 0
    record = []
    pair_index = 0
    for which in DATASET_IDS:
        data, true = suite[which]
        stats = precompute(data)
        for mid in MODEL_IDS:
            spec = builtin_model_specs(mid)
            seed = 900 + pair_index
            pair_index += 1
            _, cloud_i = run_smc(stats, spec, "integrated", 200, seed=seed)
            post_i = recover_beta_posterior(cloud_i, stats, spec, "integrated")
            d_i = mahalanobis(true.b, post_i)
            _, cloud_f = run_smc(stats, spec, "full", 200, seed=seed + 100)
            post_f = recover_beta_posterior(cloud_f, stats, spec, "full")
            d_f = mahalanobis(true.b, post_f)
            record.append((which, mid, d_i, d_f))
            wins += d_i <= d_f
    assert wins >= 14, record


# ---------------------------------------------------------------------------
# Criterion 7: sampler sanity.
# ---------------------------------------------------------------------------

def _empty_stats():
    return precompute(Dataset(
        y=np.zeros(0), x=np.zeros((0, 2)), z=np.zeros((0, 0)),
        group_of=np.zeros(0, dtype=int),
    ))


def test_criterion7_constant_likelihood_evidence_is_exactly_zero():
    # with no data the integrated likelihood is constant in theta, so every
    # tempering increment is the log of a weighted mean of equal values
    logz, cloud = run_smc(_empty_stats(), lm_spec(2), "integrated", 256, seed=5)
    assert logz == 0.0
    assert cloud.beta_temper == 1.0


def test_criterion7_ess_floor_respected_at_every_stage():
    rng = np.random.default_rng(11)
    data = _desk_data(rng, 80, 3, 0, 4)
    for spec, mode, n in [
        (lm_spec(3), "integrated", 100),
        (simple_spec(3), "integrated", 128),
        (lm_spec(3), "full", 100),
    ]:
        _, cloud = run_smc(precompute(data), spec, mode, n, seed=21)
        assert len(cloud.ess_trace) == cloud.stage
        assert all(e >= 0.5 * n - 1e-6 for e in cloud.ess_trace), min(cloud.ess_trace)


def test_criterion7_seed_determinism_batch_and_single_runs():
    rng = np.random.default_rng(12)
    data = _desk_data(rng, 60, 2, 0, 3)
    stats = precompute(data)
    spec = simple_spec(2)
    serial_1 = estimate_evidence(stats, spec, "integrated", 4, 128, master_seed=9)
    serial_2 = estimate_evidence(stats, spec, "integrated", 4, 128, master_seed=9)
    assert serial_1.runs == serial_2.runs  # rerun: byte-identical
    for k in range(4):  # each run of the batch is the run made alone, to rounding
        logz, cloud = run_smc(stats, spec, "integrated", 128, derive_run_seed(9, k))
        assert abs(serial_1.runs[k] - logz) < 1e-9
        assert serial_1.stage_counts[k] == cloud.stage
