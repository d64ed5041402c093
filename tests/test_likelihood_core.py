import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlevidence.data_model import Dataset
from mlevidence import likelihood_core
from mlevidence.likelihood_core import (
    ThetaPoint,
    batch_conditional_beta,
    batch_log_full,
    batch_log_integrated,
    conditional_beta_posterior,
    precompute,
    theta_row,
)
from mlevidence.simulation_study import ETA_PATTERN

from conftest import general_spec, lm_spec, load_radon_table, make_dataset, nig_spec, simple_spec

# Frozen oracle values: numerical integration of the row-wise likelihood
# times the coefficient/group-effect priors at a fixed variance point, on
# the literal datasets below (tensor Gauss-Legendre, achieved error < 1e-13).
LM_Y = np.array([-0.7344, 0.9024, -0.2633, 0.844, 1.7411])
LM_X = np.array([
    [0.1295, -0.9257], [-1.7885, 0.8245], [-1.2533, 0.7367],
    [0.5383, -0.7748], [-0.1764, -0.8892],
])
LM_ORACLE = -8.078512977602395          # sigma2 = 0.8, prior N(0, 0.7 I)
NIG_COND_ORACLE = -8.313577976967682    # same data, prior cov gamma*sigma2*0.7I, gamma=2

SM_Y = np.array([0.3519, 1.4579, 0.3452, 1.2033, 1.7596])
SM_X = np.array([[-0.4697], [0.4179], [-0.7416], [1.6426], [0.2618]])
SM_G = np.array([1, 2, 1, 2, 2])
SM_ORACLE = -7.002082096450535          # sigma2_y = 0.8, sigma2_eta = 0.5

GM_Y = np.array([1.1698, -0.51, -0.1142, -1.4121])
GM_X = np.array([[-0.4316], [0.5671], [0.8266], [1.2891]])
GM_Z = np.array([
    [-1.2135, 0.954], [1.6638, 1.3026], [0.0807, 1.2481], [0.0552, 1.0931],
])
GM_ORACLE = -5.902855399801134          # sigma2_y=0.8, variances=(0.4,0.6), rho=0.3


def lm_data():
    return Dataset(y=LM_Y, x=LM_X, z=np.zeros((5, 0)), group_of=np.ones(5, dtype=int))


def sm_data():
    return Dataset(y=SM_Y, x=SM_X, z=np.zeros((5, 0)), group_of=SM_G)


def gm_data():
    return Dataset(y=GM_Y, x=GM_X, z=GM_Z, group_of=np.ones(4, dtype=int))


class TestPrecompute:
    def test_shapes(self, rng):
        data = make_dataset(rng, 30, 3, 2, 4)
        stats = precompute(data)
        assert stats.gram_xx.shape == (3, 3)
        assert stats.group_gram_zz.shape == (4, 2, 2)
        assert stats.group_cross_xz.shape == (4, 3, 2)
        assert np.allclose(stats.gram_xx, data.x.T @ data.x)
        assert np.isclose(stats.sum_yy, float(data.y @ data.y))

    def test_permutation_invariance_bitwise(self, rng):
        """Row order must not change any accumulated statistic, bit for bit."""
        data = make_dataset(rng, 40, 3, 2, 5)
        perm = rng.permutation(40)
        shuffled = Dataset(
            y=data.y[perm], x=data.x[perm], z=data.z[perm], group_of=data.group_of[perm]
        )
        a, b = precompute(data), precompute(shuffled)
        for name in ("sum_yy", "sum_xy", "gram_xx", "group_sum_y", "group_sum_x",
                     "group_gram_zz", "group_sum_zy", "group_cross_xz"):
            av, bv = getattr(a, name), getattr(b, name)
            assert np.array_equal(np.asarray(av), np.asarray(bv)), name


def test_theta_point_keeps_a_frozen_copy_of_the_variances():
    variances = np.array([0.4, 0.6])
    theta = ThetaPoint(sigma2_y=0.8, nu=(variances, 0.3))
    variances[0] = 5.0
    assert variances.flags.writeable and not theta.nu[0].flags.writeable
    assert theta.nu[0][0] == 0.4


@pytest.mark.parametrize("kwargs", [
    dict(sigma2_y=np.inf),
    dict(sigma2_y=np.nan),
    dict(sigma2_y=1.0, sigma2_eta=np.nan),
    dict(sigma2_y=1.0, sigma2_eta=np.inf),
    dict(sigma2_y=1.0, nu=([np.nan, 1.0], 0.1)),
    dict(sigma2_y=1.0, nu=([np.inf, 1.0], 0.1)),
])
def test_theta_point_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError, match="finite"):
        ThetaPoint(**kwargs)


class TestFrozenOracles:
    def test_lm_matches_oracle(self):
        stats = precompute(lm_data())
        assert abs(batch_log_integrated(stats, lm_spec(2))(np.array([[0.8]]))[0] - LM_ORACLE) < 1e-10

    def test_nig_conditional_matches_oracle(self):
        stats = precompute(lm_data())
        assert abs(
            batch_log_integrated(stats, nig_spec(2))(np.array([[0.8]]))[0] - NIG_COND_ORACLE
        ) < 1e-10

    def test_simple_ml_matches_oracle(self):
        stats = precompute(sm_data())
        assert abs(
            batch_log_integrated(stats, simple_spec(1))(np.array([[0.8, 0.5]]))[0] - SM_ORACLE
        ) < 1e-10

    def test_general_ml_matches_oracle(self):
        stats = precompute(gm_data())
        theta = ThetaPoint(sigma2_y=0.8, nu=(np.array([0.4, 0.6]), 0.3))
        assert abs(
            batch_log_integrated(stats, general_spec(1, m=2))(theta_row(theta))[0] - GM_ORACLE
        ) < 1e-10


class TestBoundaryReductions:
    @pytest.mark.parametrize("sigma2_y", [0.9, 50.0])
    @pytest.mark.parametrize("sigma2_eta", [1e-300, 0.0])
    @pytest.mark.parametrize("d", [2, 5], ids=["dense", "low_rank"])
    def test_simple_ml_vanishing_group_variance_is_lm(self, rng, d, sigma2_eta, sigma2_y):
        """With J = 3 groups, d = 2 takes the dense system and d = 5 the low-rank one."""
        stats = precompute(make_dataset(rng, 25, d, 0, 3))
        spec_s = simple_spec(d)
        row = np.array([[sigma2_y, sigma2_eta]])
        assert (likelihood_core.posterior_system(stats, spec_s)(row).V is not None) == (d > 3)
        a = batch_log_integrated(stats, spec_s)(row)[0]
        b = batch_log_integrated(stats, lm_spec(d))(np.array([[sigma2_y]]))[0]
        assert abs(a - b) < 1e-10

    def test_general_ml_scalar_z_is_simple_ml(self, rng):
        base = make_dataset(rng, 25, 2, 0, 3)
        data = Dataset(y=base.y, x=base.x, z=np.ones((25, 1)), group_of=base.group_of)
        stats_g = precompute(data)
        stats_s = precompute(base)
        spec_g = general_spec(2, m=1, pattern=())
        a = batch_log_integrated(stats_g, spec_g)(np.array([[0.9, 0.5, 0.0]]))[0]
        b = batch_log_integrated(stats_s, simple_spec(2))(np.array([[0.9, 0.5]]))[0]
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("sigma2", [1e-6, 0.65, 1e6])
    def test_nig_conditional_is_lm_with_scaled_cov(self, rng, sigma2):
        """The conjugate rows, in closed form from the sigma2 = 1 row, against
        the generic LinearModel evaluator with prior cov gamma * sigma2 * 0.7 I:
        one row, then a batch row by row."""
        data = make_dataset(rng, 12, 2, 0, 2)
        stats = precompute(data)
        spec_n = nig_spec(2, gamma=3.0)
        import mlevidence.model_spec as ms

        def lm_value(s2):
            spec_l = ms.ModelSpec(
                family="LinearModel", prior_mean=np.zeros(2),
                prior_cov=3.0 * s2 * 0.7 * np.eye(2), ig_y=ms.IGPrior(3.0, 0.4),
            )
            return batch_log_integrated(stats, spec_l)(np.array([[s2]]))[0]

        a = batch_log_integrated(stats, spec_n)(np.array([[sigma2]]))[0]
        b = lm_value(sigma2)
        assert abs(a - b) < 1e-10 * max(1.0, abs(b) / 100.0)
        rows = sigma2 * np.array([1.0, 1e-3, 0.5, 2.0, 1e3])
        batch = batch_log_integrated(stats, spec_n)(rows[:, None])
        for value, s2 in zip(batch, rows):
            ref = lm_value(s2)
            assert abs(value - ref) < 1e-10 * max(1.0, abs(ref) / 100.0)

    def test_empty_dataset_gives_zero(self):
        data = Dataset(
            y=np.zeros(0), x=np.zeros((0, 2)), z=np.zeros((0, 0)),
            group_of=np.zeros(0, dtype=int),
        )
        stats = precompute(data)
        assert batch_log_integrated(stats, lm_spec(2))(np.array([[0.8]]))[0] == 0.0
        assert batch_log_integrated(stats, simple_spec(2))(np.array([[0.8, 0.5]]))[0] == 0.0
        assert batch_log_integrated(stats, nig_spec(2))(np.array([[0.8]]))[0] == 0.0
        assert np.all(batch_log_integrated(stats, nig_spec(2))(np.array([[1e-6], [0.8], [1e6]])) == 0.0)

    def test_non_pd_eta_cov_is_minus_inf(self, rng):
        data = make_dataset(rng, 10, 1, 3, 2)
        stats = precompute(data)
        spec = general_spec(1, m=3, rho=0.99, pattern=((0, 1), (1, 2)))
        theta = ThetaPoint(sigma2_y=0.8, nu=(np.ones(3), 0.99))
        assert batch_log_integrated(stats, spec)(theta_row(theta))[0] == -np.inf

    def test_extreme_variance_ratio_is_never_nan(self):
        """One row per group makes every Z_j^T Z_j singular; at variances near
        1e17 times sigma2_y rounding swamps the group blocks, and such a row
        gets -inf like one that fails the gate, never NaN."""
        stats = precompute(make_dataset(np.random.default_rng(1), 8, 2, 2, 8))
        theta = np.array([[1.0, 9.865e-13, 4.620e17, -0.2695], [1.0, 0.4, 0.6, 0.3]])
        out = batch_log_integrated(stats, general_spec(2, m=2, sampled_rho=True))(theta)
        assert not np.any(np.isnan(out))
        assert np.isfinite(out[1])

    def test_swamped_row_is_minus_inf_and_spares_its_block(self):
        """A row whose bordered factor fails and whose fallback residual is
        negative (rounding swamps it at variance ratios near 1e27) gets -inf,
        and the other rows of its block keep their one-row values; before,
        such a row raised alone and returned +2.4e13 in this block."""
        stats = precompute(make_dataset(np.random.default_rng(1), 8, 2, 2, 8))
        loglik = batch_log_integrated(stats, general_spec(2, m=2))
        rows = np.exp(np.random.default_rng(0).uniform(-46, 46, (300, 3)))
        swamped = rows[5]
        assert np.allclose(np.log(swamped), [-29.8397, 33.4125, 3.8144], atol=1e-4)
        benign = np.array([1.0, 0.5, 0.5])
        out = loglik(np.array([swamped, benign]))
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(loglik(benign[None])[0], rel=1e-12, abs=0.0)
        values = np.concatenate([loglik(row[None]) for row in rows])   # none raises
        assert not np.any(np.isnan(values))
        assert np.all(values[np.isfinite(values)] < 0.0)

    @pytest.mark.parametrize("make_spec, shape", [
        (lambda: lm_spec(3), (30, 3, 0, 4)),
        (lambda: simple_spec(5), (40, 5, 0, 2)),
        (lambda: simple_spec(2), (40, 2, 0, 4)),
        (lambda: general_spec(3, m=2, sampled_rho=True), (40, 3, 2, 4)),
    ])
    def test_blocked_rows_match_one_block(self, monkeypatch, make_spec, shape):
        """Large inputs reach the kernel in blocks; each row's value is the
        one it gets in a single block, to rounding, -inf rows included."""
        stats = precompute(make_dataset(np.random.default_rng(2), *shape))
        spec = make_spec()
        k = spec.layout.n_params
        theta = np.exp(np.random.default_rng(3).normal(size=(11, k)))
        if spec.layout.rho_sampled:
            theta[:, -1] = np.tanh(np.log(theta[:, -1]))
            theta[5, -1] = 1.0   # fails the positive-definiteness gate: -inf
        whole = batch_log_integrated(stats, spec)(theta)
        monkeypatch.setattr(likelihood_core, "_BLOCK_ENTRIES", 1)   # one row per block
        split = batch_log_integrated(stats, spec)(theta)
        fin = np.isfinite(whole)
        assert np.array_equal(np.isfinite(split), fin)
        assert fin.sum() == 11 - spec.layout.rho_sampled
        assert np.allclose(split[fin], whole[fin], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d, m, J", [(2, 0, 4), (5, 0, 2), (2, 2, 3)])
    def test_zero_response_is_finite(self, rng, d, m, J):
        """y = 0 makes the residual quadratic form exactly zero, a bordered
        Cholesky factor with a zero last pivot; the value is still the
        dense n x n marginal."""
        base = make_dataset(rng, 12, d, m, J)
        data = Dataset(y=np.zeros(12), x=base.x, z=base.z, group_of=base.group_of)
        stats = precompute(data)
        if m:
            spec = general_spec(d, m=m)
            theta = np.array([[0.8, 0.4, 0.6]])
            se = np.array([[0.4, 0.3 * np.sqrt(0.24)], [0.3 * np.sqrt(0.24), 0.6]])
            z = data.z
        else:
            spec = simple_spec(d)
            theta = np.array([[0.8, 0.5]])
            se = np.array([[0.5]])
            z = np.ones((12, 1))
        V = 0.8 * np.eye(12) + data.x @ spec.prior_cov @ data.x.T
        for g in range(1, J + 1):
            idx = np.flatnonzero(data.group_of == g)
            V[np.ix_(idx, idx)] += z[idx] @ se @ z[idx].T
        direct = -0.5 * (12 * np.log(2 * np.pi) + np.linalg.slogdet(V)[1])
        assert abs(batch_log_integrated(stats, spec)(theta)[0] - direct) < 1e-8


class TestFullLikelihood:
    def test_matches_rowwise_computation(self, rng):
        data = make_dataset(rng, 20, 3, 2, 4)
        stats = precompute(data)
        beta = rng.normal(size=3)
        eta = rng.normal(size=(4, 2))
        s2 = 0.7
        mean = data.x @ beta + np.sum(data.z * eta[data.group_of - 1], axis=1)
        resid = data.y - mean
        direct = -0.5 * (20 * np.log(2 * np.pi * s2) + resid @ resid / s2)
        val = batch_log_full(stats, general_spec(3, m=2))(beta[None], eta[None], np.array([s2]))[0]
        assert abs(val - direct) < 1e-8

    def test_lm_case(self, rng):
        data = make_dataset(rng, 15, 2, 0, 2)
        stats = precompute(data)
        beta = rng.normal(size=2)
        resid = data.y - data.x @ beta
        direct = -0.5 * (15 * np.log(2 * np.pi * 0.5) + resid @ resid / 0.5)
        val = batch_log_full(stats, lm_spec(2))(beta[None], None, np.array([0.5]))[0]
        assert abs(val - direct) < 1e-8


class TestBatchEvaluators:
    @pytest.mark.parametrize("family", ["lm", "nig", "simple", "general", "general-rho"])
    def test_batch_matches_scalar(self, rng, family):
        if family in ("lm", "nig"):
            data = make_dataset(rng, 30, 3, 0, 2)
        elif family == "simple":
            data = make_dataset(rng, 30, 3, 0, 4)
        else:
            data = make_dataset(rng, 30, 3, 2, 4)
        stats = precompute(data)
        P = 16
        if family == "lm":
            spec = lm_spec(3)
            theta = 0.2 + rng.random((P, 1))
        elif family == "nig":
            spec = nig_spec(3)
            theta = 0.2 + rng.random((P, 1))
        elif family == "simple":
            spec = simple_spec(3)
            theta = 0.2 + rng.random((P, 2))
        elif family == "general":
            spec = general_spec(3, m=2)
            theta = 0.2 + rng.random((P, 3))
        else:
            spec = general_spec(3, m=2, sampled_rho=True)
            theta = np.column_stack([0.2 + rng.random((P, 3)), rng.uniform(-0.8, 0.8, P)])
        loglik = batch_log_integrated(stats, spec)
        rows = theta
        if family == "general":   # the fixed correlation may ride along in a row
            rows = np.column_stack([theta, np.full(P, 0.3)])
        ref = [loglik(row[None])[0] for row in rows]
        out = loglik(theta)
        assert np.allclose(out, ref, atol=1e-8, rtol=0)

    def test_batch_full_matches_scalar(self, rng):
        data = make_dataset(rng, 20, 2, 2, 3)
        stats = precompute(data)
        spec = general_spec(2, m=2)
        P = 8
        beta = rng.normal(size=(P, 2))
        eta = rng.normal(size=(P, 3, 2))
        s2 = 0.3 + rng.random(P)
        out = batch_log_full(stats, spec)(beta, eta, s2)
        loglik = batch_log_full(stats, spec)
        ref = [loglik(beta[i:i + 1], eta[i:i + 1], s2[i:i + 1])[0] for i in range(P)]
        assert np.allclose(out, ref, atol=1e-8, rtol=0)


class TestConditionalBetaPosterior:
    def test_lm_posterior_moments(self, rng):
        data = make_dataset(rng, 40, 2, 0, 2)
        stats = precompute(data)
        spec = lm_spec(2)
        s2 = 0.8
        mean, cov = conditional_beta_posterior(stats, spec, ThetaPoint(sigma2_y=s2))
        prec = np.linalg.inv(spec.prior_cov) + stats.gram_xx / s2
        ref_cov = np.linalg.inv(prec)
        ref_mean = ref_cov @ (stats.sum_xy / s2)
        assert np.allclose(mean, ref_mean, atol=1e-10)
        assert np.allclose(cov, ref_cov, atol=1e-10)

    def test_general_posterior_via_stacked_lm(self, rng):
        """Augmenting x with per-group z columns reduces the multilevel
        conditional posterior of beta to a plain GLS computation."""
        data = make_dataset(rng, 30, 2, 2, 3)
        stats = precompute(data)
        spec = general_spec(2, m=2)
        theta = ThetaPoint(sigma2_y=0.7, nu=(np.array([0.4, 0.6]), 0.3))
        mean, cov = conditional_beta_posterior(stats, spec, theta)
        # reference: marginal covariance V = s2 I + Z Sigma_eta Z^T blockwise
        from mlevidence.model_spec import assemble_sigma_eta

        se = assemble_sigma_eta(spec.eta_structure, *theta.nu)
        V = 0.7 * np.eye(30)
        for j in range(1, 4):
            idx = np.flatnonzero(data.group_of == j)
            Zj = data.z[idx]
            V[np.ix_(idx, idx)] += Zj @ se @ Zj.T
        Vi = np.linalg.inv(V)
        prec = np.linalg.inv(spec.prior_cov) + data.x.T @ Vi @ data.x
        ref_cov = np.linalg.inv(prec)
        ref_mean = ref_cov @ (data.x.T @ Vi @ data.y)
        assert np.allclose(mean, ref_mean, atol=1e-8)
        assert np.allclose(cov, ref_cov, atol=1e-8)

    @pytest.mark.parametrize("d, J", [(6, 3), (2, 5)])
    def test_simple_posterior_matches_dense_inverse(self, rng, d, J):
        """J < d (low-rank solves) and J >= d (dense): the batched conditional
        posteriors match inv(A) of the precision built from the n x n
        marginal covariance, to 1e-10 relative."""
        data = make_dataset(rng, 40, d, 0, J)
        stats = precompute(data)
        spec = simple_spec(d)
        theta = np.array([[0.7, 0.3], [1.9, 0.05], [0.2, 2.5]])
        means, covs = batch_conditional_beta(stats, spec)(theta).in_beta()
        for (s2y, s2e), mean, cov in zip(theta, means, covs):
            Omega = s2y * np.eye(40) + s2e * (data.group_of[:, None] == data.group_of[None, :])
            Oi = np.linalg.inv(Omega)
            ref_cov = np.linalg.inv(np.linalg.inv(spec.prior_cov) + data.x.T @ Oi @ data.x)
            ref_mean = ref_cov @ (data.x.T @ Oi @ data.y)
            assert np.linalg.norm(cov - ref_cov) < 1e-10 * np.linalg.norm(ref_cov)
            assert np.linalg.norm(mean - ref_mean) < 1e-10 * np.linalg.norm(ref_mean)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s2=st.floats(0.05, 5.0))
def test_property_lm_oracle_agreement(seed, s2):
    """Randomized desk-scale check against direct dense-matrix marginals."""
    r = np.random.default_rng(seed)
    n, d = int(r.integers(1, 6)), int(r.integers(1, 3))
    data = make_dataset(r, max(n, 1), d, 0, 1)
    stats = precompute(data)
    spec = lm_spec(d)
    # dense marginal: y ~ N(0, s2 I + X S X^T)
    V = s2 * np.eye(data.n) + data.x @ spec.prior_cov @ data.x.T
    sign, logdet = np.linalg.slogdet(V)
    direct = -0.5 * (
        data.n * np.log(2 * np.pi) + logdet + data.y @ np.linalg.solve(V, data.y)
    )
    assert abs(batch_log_integrated(stats, spec)(np.array([[s2]]))[0] - direct) < 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s2y=st.floats(0.05, 5.0), s2e=st.floats(0.01, 5.0))
def test_property_simple_ml_dense_marginal(seed, s2y, s2e):
    """Against the dense n x n marginal; besides the first draw, one case
    with fewer groups than coefficients (J < d: the low-rank solves) and
    one with at least as many (J >= d: the dense ones)."""
    r = np.random.default_rng(seed)
    J = int(r.integers(1, 4))
    cases = [(J, int(r.integers(J, 8)), 2), (2, 8, 5), (5, 9, 3)]
    for J, n, d in cases:
        data = make_dataset(r, max(n, J), d, 0, J)
        stats = precompute(data)
        spec = simple_spec(d)
        V = s2y * np.eye(data.n)
        for j in range(1, J + 1):
            idx = np.flatnonzero(data.group_of == j)
            V[np.ix_(idx, idx)] += s2e
        V += data.x @ spec.prior_cov @ data.x.T
        sign, logdet = np.linalg.slogdet(V)
        direct = -0.5 * (
            data.n * np.log(2 * np.pi) + logdet + data.y @ np.linalg.solve(V, data.y)
        )
        assert abs(batch_log_integrated(stats, spec)(np.array([[s2y, s2e]]))[0] - direct) < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_general_ml_batch_dense_marginal(seed):
    """Each row of a GeneralMultilevel block, sampled correlation included,
    against the dense n x n Gaussian marginal; a row whose group-level
    covariance is not positive-definite gets -inf."""
    r = np.random.default_rng(seed)
    J = int(r.integers(1, 4))
    data = make_dataset(r, int(r.integers(J + 1, 10)), 2, 3, J)
    pattern = ((0, 1), (1, 2))
    spec = general_spec(2, m=3, sampled_rho=True, pattern=pattern)
    theta = np.column_stack([r.uniform(0.1, 3.0, (8, 4)), r.uniform(-0.7, 0.7, 8)])
    theta[-1, 4] = 0.9  # 1 - 0.9 sqrt(2) < 0: not positive-definite
    out = batch_log_integrated(precompute(data), spec)(theta)
    assert out[-1] == -np.inf
    for row, value in zip(theta[:-1], out[:-1]):
        se = np.diag(row[1:4])
        for i, j in pattern:
            se[i, j] = se[j, i] = row[4] * np.sqrt(row[1 + i] * row[1 + j])
        V = row[0] * np.eye(data.n) + data.x @ spec.prior_cov @ data.x.T
        for g in range(1, J + 1):
            idx = np.flatnonzero(data.group_of == g)
            V[np.ix_(idx, idx)] += data.z[idx] @ se @ data.z[idx].T
        sign, logdet = np.linalg.slogdet(V)
        direct = -0.5 * (data.n * np.log(2 * np.pi) + logdet + data.y @ np.linalg.solve(V, data.y))
        assert abs(value - direct) < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rho=st.floats(-0.65, 0.65))
def test_property_general_ml_sim_shape_dense_marginal(seed, rho):
    """sim:M2's group-level shape: m = 4, the tridiagonal ETA_PATTERN and a
    fixed correlation, against the dense n x n marginal.  The last row takes
    the correlation within 1.2e-9 of the bound 1/sqrt(2), where the smallest
    eigenvalue of Sigma_eta is about 1.7e-9 of its scale, so the group
    factors run through all four columns of a nearly singular Sigma_eta."""
    r = np.random.default_rng(seed)
    J = int(r.integers(1, 4))
    data = make_dataset(r, int(r.integers(J + 1, 12)), 2, 4, J)
    stats = precompute(data)
    theta = r.uniform(0.1, 3.0, (5, 5))
    cases = [(rho, row) for row in theta[:-1]] + [(0.70710678, theta[-1])]
    for rho_row, row in cases:
        spec = general_spec(2, m=4, rho=rho_row, pattern=ETA_PATTERN)
        se = np.diag(row[1:])
        for i, j in ETA_PATTERN:
            se[i, j] = se[j, i] = rho_row * np.sqrt(row[1 + i] * row[1 + j])
        V = row[0] * np.eye(data.n) + data.x @ spec.prior_cov @ data.x.T
        for g in range(1, J + 1):
            idx = np.flatnonzero(data.group_of == g)
            V[np.ix_(idx, idx)] += data.z[idx] @ se @ data.z[idx].T
        sign, logdet = np.linalg.slogdet(V)
        direct = -0.5 * (data.n * np.log(2 * np.pi) + logdet + data.y @ np.linalg.solve(V, data.y))
        assert abs(batch_log_integrated(stats, spec)(row[None])[0] - direct) < 1e-8


class TestPrecomputeSegments:
    def test_tied_responses_permutation_invariance_bitwise(self, rng):
        """Repeated y values within a group are ordered by x and z, bit for bit."""
        data = make_dataset(rng, 60, 3, 2, 4)
        y = np.round(data.y, 0)          # many ties within each group
        perm = rng.permutation(60)
        a = precompute(Dataset(y=y, x=data.x, z=data.z, group_of=data.group_of))
        b = precompute(Dataset(y=y[perm], x=data.x[perm], z=data.z[perm],
                               group_of=data.group_of[perm]))
        for name in ("sum_yy", "sum_xy", "gram_xx", "group_sum_y", "group_sum_x",
                     "group_gram_zz", "group_sum_zy", "group_cross_xz"):
            assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name))), name

    def test_canonical_order_is_the_full_key_lexsort(self, rng):
        """Ties in group and y, a NaN response and repeated rows sort as ``np.lexsort`` does."""
        data = make_dataset(rng, 80, 3, 2, 5)
        y = np.round(data.y, 0)
        y[[3, 40]] = np.nan
        x = data.x.copy()
        x[10] = x[11]
        x[10:12, 0] = np.round(x[10:12, 0], 0)
        tied = Dataset(y=y, x=x, z=data.z, group_of=data.group_of)
        keys = np.column_stack([tied.group_of, tied.y, tied.x, tied.z])
        np.testing.assert_array_equal(
            keys[likelihood_core._canonical_order(tied)], keys[np.lexsort(keys.T[::-1])]
        )

    def test_matches_per_group_sums(self, rng):
        data = make_dataset(rng, 50, 3, 2, 6)
        s = precompute(data)
        for j in range(data.J):
            rows = data.group_of == j + 1
            yj, xj, zj = data.y[rows], data.x[rows], data.z[rows]
            np.testing.assert_allclose(s.group_sum_y[j], yj.sum(), rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(s.group_sum_x[j], xj.sum(axis=0), rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(s.group_gram_zz[j], zj.T @ zj, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(s.group_sum_zy[j], zj.T @ yj, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(s.group_cross_xz[j], xj.T @ zj, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(s.gram_xx, data.x.T @ data.x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(s.sum_xy, data.x.T @ data.y, rtol=1e-13, atol=1e-13)
        assert abs(s.sum_yy - data.y @ data.y) < 1e-12

    def test_empty_data(self):
        s = precompute(Dataset(y=np.zeros(0), x=np.zeros((0, 2)), z=np.zeros((0, 1)),
                               group_of=np.zeros(0, dtype=int)))
        assert s.J == 0 and s.sum_yy == 0.0
        assert s.group_cross_xz.shape == (0, 2, 1) and s.group_gram_zz.shape == (0, 1, 1)
        np.testing.assert_array_equal(s.gram_xx, np.zeros((2, 2)))


class TestKernelReuse:
    """A kernel is built once per (stats, spec, flat), and a dense one reuses its buffers."""

    def test_sampler_and_posterior_build_the_kernel_once(self, rng, monkeypatch):
        from mlevidence.posterior_analysis import recover_beta_posterior
        from mlevidence.smc_engine import run_smc

        builds = []

        def counted(build):
            def kernel(stats, spec, flat):
                builds.append((stats, spec))
                return build(stats, spec, flat)

            return kernel

        for family, build in list(likelihood_core._KERNELS.items()):
            monkeypatch.setitem(likelihood_core._KERNELS, family, counted(build))
        monkeypatch.setattr(likelihood_core, "_KERNEL_CACHE", likelihood_core._Recent(2))
        stats, spec = precompute(make_dataset(rng, 60, 2, 2, 3)), general_spec(2, m=2)
        _, cloud = run_smc(stats, spec, "integrated", 50, seed=3)
        recover_beta_posterior(cloud, stats, spec, "integrated")
        assert builds == [(stats, spec)]
        for k in range(5):
            other = precompute(make_dataset(rng, 40, 2, 0, 3))
            batch_log_integrated(other, simple_spec(2) if k % 2 else lm_spec(2))
        assert len(builds) == 6
        assert len(likelihood_core._KERNEL_CACHE.entries) <= 2

    @pytest.mark.parametrize("shape", ["dense", "low_rank"])
    def test_system_is_the_same_after_larger_blocks(self, rng, shape):
        """Growing the buffers for a larger block leaves a smaller block's values as they were."""
        if shape == "dense":
            stats, spec, k = precompute(make_dataset(rng, 60, 3, 2, 4)), general_spec(3, m=2), 3
        else:
            stats, spec, k = precompute(make_dataset(rng, 60, 5, 0, 2)), simple_spec(5), 2
        system = likelihood_core.posterior_system(stats, spec)

        def values(s):
            """log|A| and the residuals, and a dense system's bordered matrices, copied."""
            assert (s.V is None) == (shape == "dense")
            return [a.copy() for a in (*likelihood_core.logdet_resid(s), s.bordered) if a is not None]

        small = rng.uniform(0.3, 2.0, (3, k))
        first = values(system(small))
        values(system(rng.uniform(0.3, 2.0, (40, k))))
        again = values(system(small))
        assert len(again) == (3 if shape == "dense" else 2)
        for got, want in zip(again, first):
            np.testing.assert_array_equal(got, want)


class TestEqualGramGroups:
    """Groups whose Z_j^T Z_j are equal share one group block in the dense kernels."""

    @staticmethod
    def floor_data(rng, J, d):
        """Indicator z = [1 - t, t], as radon's M5: Z_j^T Z_j is set by the group
        size and its count of t = 1, so groups of sizes 2 to 4 repeat them."""
        sizes = rng.integers(2, 5, J)
        group = np.repeat(np.arange(1, J + 1), sizes)
        t = (rng.random(group.size) < 0.3).astype(float)
        n = group.size
        data = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, d)),
                       z=np.column_stack([1.0 - t, t]), group_of=group)
        grams = {(int(np.sum(group == j)), int(t[group == j].sum())) for j in range(1, J + 1)}
        assert len(grams) < J
        return data

    @staticmethod
    def dense_marginal(data, spec, s2y, se):
        """Log density of y under the n x n Gaussian marginal, group effects with covariance se."""
        z = data.z if data.m else np.ones((data.n, 1))
        V = s2y * np.eye(data.n) + data.x @ spec.prior_cov @ data.x.T
        for g in range(1, data.J + 1):
            idx = np.flatnonzero(data.group_of == g)
            V[np.ix_(idx, idx)] += z[idx] @ se @ z[idx].T
        _, logdet = np.linalg.slogdet(V)
        return -0.5 * (data.n * np.log(2 * np.pi) + logdet + data.y @ np.linalg.solve(V, data.y))

    def test_general_ml_matches_dense_marginal(self, rng):
        data = self.floor_data(rng, 14, 2)
        spec = general_spec(2, m=2, sampled_rho=True)
        theta = np.column_stack([rng.uniform(0.1, 3.0, (6, 3)), rng.uniform(-0.8, 0.8, 6)])
        out = batch_log_integrated(precompute(data), spec)(theta)
        for row, value in zip(theta, out):
            off = row[3] * np.sqrt(row[1] * row[2])
            direct = self.dense_marginal(data, spec, row[0], np.array([[row[1], off], [off, row[2]]]))
            assert abs(value - direct) <= 1e-8 * abs(direct)

    def test_dense_simple_ml_matches_dense_marginal(self, rng):
        data = self.floor_data(rng, 14, 3)
        data = Dataset(y=data.y, x=data.x, z=np.zeros((data.n, 0)), group_of=data.group_of)
        assert data.J >= data.d   # the dense branch
        spec = simple_spec(3)
        theta = rng.uniform(0.05, 3.0, (6, 2))
        out = batch_log_integrated(precompute(data), spec)(theta)
        for (s2y, s2e), value in zip(theta, out):
            direct = self.dense_marginal(data, spec, s2y, np.array([[s2e]]))
            assert abs(value - direct) <= 1e-8 * abs(direct)

    @pytest.mark.parametrize("family", ["general", "simple"])
    def test_group_labels_do_not_matter(self, rng, family):
        """Relabelling the groups only reorders the sums within a block's class."""
        data = self.floor_data(rng, 20, 2)
        if family == "simple":
            data = Dataset(y=data.y, x=data.x, z=np.zeros((data.n, 0)), group_of=data.group_of)
        spec = general_spec(2, m=2, sampled_rho=True) if family == "general" else simple_spec(2)
        relabelled = Dataset(y=data.y, x=data.x, z=data.z,
                             group_of=rng.permutation(data.J)[data.group_of - 1] + 1)
        theta = rng.uniform(0.1, 3.0, (8, spec.layout.n_params))
        if family == "general":
            theta[:, 3] = rng.uniform(-0.8, 0.8, 8)
        a = batch_log_integrated(precompute(data), spec)(theta)
        b = batch_log_integrated(precompute(relabelled), spec)(theta)
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(a))

    def test_radon_m5_blocks_count_distinct_grams(self):
        """radon:M5's 85 counties hold fewer distinct (size, first-floor count)
        pairs; its blocks are sized by those, six (2, 2) blocks of each per row."""
        from mlevidence.cli import radon_model_spec
        from mlevidence.data_model import RadonTable, build_radon_design

        rows = load_radon_table().draw([1, 0])
        raw = RadonTable(county=rows.county, floor=rows.floor, log_radon=rows.log_radon,
                         log_uranium=rows.log_uranium)
        data, _ = build_radon_design(raw, "M5")
        spec = radon_model_spec("M5", data.d)
        floor = data.z[:, 1]
        distinct = len({(int(np.sum(data.group_of == j)), int(floor[data.group_of == j].sum()))
                        for j in range(1, data.J + 1)})
        assert data.J == 85 and distinct < 60
        system = likelihood_core.posterior_system(precompute(data), spec)
        assert system.row_entries == 6 * 4 * distinct


# Minor page faults per call of one likelihood kept alive: argv is the model,
# the study dataset drawn from default_rng(0), and the rows per call.
_FAULTS_PROBE = """
import resource, sys
import numpy as np
from mlevidence.likelihood_core import batch_log_integrated, precompute
from mlevidence.simulation_study import SimConfig, builtin_model_specs, generate_dataset
model, dataset, P = sys.argv[1], sys.argv[2], int(sys.argv[3])
data = generate_dataset(dataset, SimConfig(), np.random.default_rng(0))[0]
spec = builtin_model_specs(model)
loglik = batch_log_integrated(precompute(data), spec)
rows = np.random.default_rng(1).uniform(0.5, 2.0, (P, spec.layout.n_params))
loglik(rows)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(49):
    loglik(rows)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 49)
"""


def _faults_per_call(model, dataset, rows):
    """Run the probe in a fresh interpreter, so that no earlier allocation sets glibc's thresholds."""
    src = str(Path(likelihood_core.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PROBE, model, dataset, str(rows)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


_GLIBC_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts are measured against glibc's allocator",
)


@_GLIBC_ONLY
def test_dense_kernel_takes_no_fresh_pages_per_call():
    """A sim:M2 likelihood called again and again faults in no new pages.

    Without buffers of its own, each call's block-sized temporaries were
    mapped fresh from the system once the kernel lived on: about 830 minor
    page faults per 100-row call.
    """
    assert _faults_per_call("M2", "D2", 100) <= 20.0


@_GLIBC_ONLY
def test_low_rank_kernel_takes_no_fresh_pages_per_call():
    """A sim:M1 likelihood (J = 10 < d: the low-rank solves) called on 16
    runs' 800 rows faults in no new pages.  With a fresh bordered matrix
    per block it took about 956 minor page faults per call."""
    assert _faults_per_call("M1", "D1", 800) <= 20.0
