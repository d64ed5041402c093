from functools import partial

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mlevidence import likelihood_core
from mlevidence.data_model import Dataset, RadonTable, build_radon_design
from mlevidence.likelihood_core import LOG_2PI, ThetaPoint, precompute, theta_row
from mlevidence.analytic_evidence import nig_posterior
from mlevidence.model_spec import assemble_sigma_eta
from mlevidence.posterior_analysis import (
    AICResult,
    BayesFactor,
    PosteriorGaussian,
    SingularCovarianceError,
    aic,
    bayes_factor,
    beta_posterior_trace,
    conditional_eta_means,
    export_fits,
    mahalanobis,
    recover_beta_posterior,
)
from mlevidence.simulation_study import DATASET_IDS, SimConfig, builtin_model_specs, generate_dataset
from mlevidence.smc_engine import EvidenceEstimate, run_smc

from conftest import general_spec, lm_spec, make_dataset, nig_spec, simple_spec


class TestRecoverBetaPosterior:
    def test_integrated_mixture_close_to_nig_posterior_mean(self, rng):
        """For the conjugate family the mixture over the variance trace
        should land near the exact posterior mean of the coefficients."""
        data = make_dataset(rng, 120, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2)
        _, cloud = run_smc(stats, spec, "integrated", 600, seed=3)
        post = recover_beta_posterior(cloud, stats, spec, "integrated")
        exact = nig_posterior(stats, spec)
        sd = np.sqrt(np.diag(post.cov))
        assert np.all(np.abs(post.mean - exact.mean) < 4 * sd / np.sqrt(600) + 0.05)
        assert post.source == "mixture-over-trace"

    def test_full_mode_empirical(self, rng):
        data = make_dataset(rng, 60, 2, 0, 2)
        stats = precompute(data)
        spec = lm_spec(2)
        _, cloud = run_smc(stats, spec, "full", 400, seed=5)
        post = recover_beta_posterior(cloud, stats, spec, "full")
        assert post.source == "empirical-from-draws"
        assert post.cov.shape == (2, 2)
        # The cloud is equally weighted: the sample mean and the N - 1 sample covariance.
        beta_draws = cloud.particles[:, :2]
        mean, cov = beta_draws.mean(0), np.cov(beta_draws, rowvar=False)
        assert np.linalg.norm(post.mean - mean) <= 1e-12 * np.linalg.norm(mean)
        assert np.linalg.norm(post.cov - cov) <= 1e-12 * np.linalg.norm(cov)
        # integrated and full posteriors should roughly agree
        post_i = recover_beta_posterior(
            run_smc(stats, spec, "integrated", 400, seed=5)[1], stats, spec, "integrated"
        )
        assert np.all(np.abs(post.mean - post_i.mean) < 0.25)

    def test_full_mode_degenerate_cloud_raises(self, rng):
        from mlevidence.smc_engine import ParticleCloud

        particles = np.zeros((64, 3))  # all identical draws
        cloud = ParticleCloud(
            particles=particles, log_weights=np.full(64, -np.log(64)),
            log_z_increments=(), rng_seed=0, stage=0, accept_rate=1.0,
        )
        data = make_dataset(rng, 10, 2, 0, 2)
        stats = precompute(data)
        with pytest.raises(SingularCovarianceError):
            recover_beta_posterior(cloud, stats, lm_spec(2), "full")

    @pytest.mark.parametrize("case", ["lm", "nig", "simple-low-rank", "simple-dense", "general"])
    def test_integrated_mixture_equals_trace_mixture(self, rng, case):
        """The mixture reduced in the kernel's coordinates equals the one built
        in the coefficients from the trace: the mean of the covariances plus
        the spread of the means, to 1e-12 relative.  SimpleMultilevel runs with
        J < d (low-rank solves) and J >= d (dense)."""
        d, m, J, spec = {
            "lm": (3, 0, 2, lm_spec(3)),
            "nig": (3, 0, 2, nig_spec(3)),
            "simple-low-rank": (6, 0, 3, simple_spec(6)),
            "simple-dense": (2, 0, 5, simple_spec(2)),
            "general": (2, 2, 4, general_spec(2, m=2)),
        }[case]
        stats = precompute(make_dataset(rng, 40, d, m, J))
        _, cloud = run_smc(stats, spec, "integrated", 64, seed=11)
        post = recover_beta_posterior(cloud, stats, spec, "integrated")
        trace = beta_posterior_trace(cloud, stats, spec)
        means = np.array([t[0] for t in trace])
        mean = means.mean(axis=0)
        dm = means - mean
        cov = np.mean([t[1] for t in trace], axis=0) + dm.T @ dm / len(trace)
        assert np.linalg.norm(post.mean - mean) <= 1e-12 * np.linalg.norm(mean)
        assert np.linalg.norm(post.cov - cov) <= 1e-12 * np.linalg.norm(cov)

    @pytest.mark.parametrize("make_spec, shape", [
        (lambda: lm_spec(3), (30, 3, 0, 4)),                                  # diagonal
        (lambda: simple_spec(5), (40, 5, 0, 2)),                              # low-rank
        (lambda: simple_spec(2), (40, 2, 0, 4)),                              # dense
        (lambda: general_spec(3, m=2, sampled_rho=True), (40, 3, 2, 4)),      # dense
    ])
    def test_blocked_rows_match_one_block(self, monkeypatch, make_spec, shape):
        """The cloud reaches the conditional posteriors in the likelihood's
        blocks; one-row blocks give the one-block mixture to 1e-12 relative."""
        stats = precompute(make_dataset(np.random.default_rng(2), *shape))
        spec = make_spec()
        _, cloud = run_smc(stats, spec, "integrated", 50, seed=3)
        whole = recover_beta_posterior(cloud, stats, spec, "integrated")
        monkeypatch.setattr(likelihood_core, "_BLOCK_ENTRIES", 1)   # one row per block
        split = recover_beta_posterior(cloud, stats, spec, "integrated")
        assert np.linalg.norm(split.mean - whole.mean) <= 1e-12 * np.linalg.norm(whole.mean)
        assert np.linalg.norm(split.cov - whole.cov) <= 1e-12 * np.linalg.norm(whole.cov)


class TestMahalanobis:
    def test_gaussian_quadratic_form(self):
        post = PosteriorGaussian(
            mean=np.array([1.0, 2.0]), cov=np.diag([4.0, 9.0]), source="empirical-from-draws"
        )
        b = np.array([3.0, 5.0])
        expected = np.sqrt((2.0 / 2.0) ** 2 + (3.0 / 3.0) ** 2)
        assert np.isclose(mahalanobis(b, post), expected)

    def test_trace_averaging(self):
        trace = [
            (np.zeros(1), np.array([[1.0]])),
            (np.zeros(1), np.array([[4.0]])),
        ]
        val = mahalanobis(np.array([2.0]), trace)
        assert np.isclose(val, np.sqrt(0.5 * 4.0 + 0.5 * 1.0))

    def test_zero_at_mean(self):
        post = PosteriorGaussian(mean=np.ones(2), cov=np.eye(2), source="x")
        assert mahalanobis(np.ones(2), post) == 0.0


def test_posterior_gaussian_keeps_frozen_copies():
    mean, cov = np.ones(2), np.eye(2)
    post = PosteriorGaussian(mean=mean, cov=cov, source="x")
    mean[0] = cov[0, 0] = 5.0
    assert mean.flags.writeable and cov.flags.writeable
    assert post.mean[0] == 1.0 and post.cov[0, 0] == 1.0
    assert not post.mean.flags.writeable and not post.cov.flags.writeable


class TestAIC:
    def test_lm_matches_ols_closed_form(self, rng):
        data = make_dataset(rng, 200, 3, 0, 2)
        res = aic(data, lm_spec(3))
        X, y = data.x, data.y
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        rss = float(np.sum((y - X @ beta) ** 2))
        s2 = rss / 200
        ll = -0.5 * (200 * np.log(2 * np.pi * s2) + 200)
        assert abs(res.max_loglik - ll) < 1e-5
        assert res.k == 3
        assert np.isclose(res.aic, 2 * 3 - 2 * ll, atol=1e-4)

    def test_multilevel_k_counts_variances(self, rng):
        data = make_dataset(rng, 60, 2, 0, 3)
        assert aic(data, simple_spec(2)).k == 2 + 2

    def test_simple_ml_beats_misspecified_lm_on_grouped_data(self, rng):
        # strong group effects: the multilevel profile likelihood must win
        base = make_dataset(rng, 300, 2, 0, 5)
        shift = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])
        y = base.y + shift[base.group_of - 1]
        data = Dataset(y=y, x=base.x, z=base.z, group_of=base.group_of)
        ll_lm = aic(data, lm_spec(2)).max_loglik
        ll_ml = aic(data, simple_spec(2)).max_loglik
        assert ll_ml > ll_lm + 10

    @pytest.mark.parametrize("make_spec", [lm_spec, simple_spec, partial(general_spec, m=2)],
                             ids=["lm", "simple", "general"])
    def test_callers_stats_give_the_same_result(self, rng, make_spec):
        data = make_dataset(rng, 80, 2, 2, 4)
        spec = make_spec(2)
        assert aic(data, spec, stats=precompute(data)) == aic(data, spec)

    def test_general_ml_runs_and_converges(self, rng):
        data = make_dataset(rng, 80, 2, 2, 4)
        res = aic(data, general_spec(2, m=2, sampled_rho=True))
        assert isinstance(res, AICResult)
        assert np.isfinite(res.aic)
        assert res.k == 2 + 4

    @pytest.mark.parametrize("which", ["M1", "M2"])
    def test_study_search_converges_to_the_gls_maximum(self, which):
        """On the D1 and D2 of ``simulate --seed 2`` the search converges, and
        its maximum is the dense GLS log likelihood at theta-hat."""
        rng = np.random.default_rng(2)
        suite = {w: generate_dataset(w, SimConfig(), rng)[0] for w in DATASET_IDS}
        data, spec = suite["D" + which[1]], builtin_model_specs(which)
        res = aic(data, spec)
        assert res.converged
        want = _dense_gls_loglik(data, spec, res.theta_hat["log_variances"])
        assert abs(res.max_loglik - want) < 1e-6

    def test_converged_means_the_two_best_starts_agree(self, monkeypatch):
        """sim:M1 on the D1 of ``simulate --seed 0``: every start reaches the
        same maximum.  When the other starts report maxima 1e-3 nats lower,
        the first start is the best one and succeeds, but the search has not
        converged; the maximum is still the first start's."""
        import scipy.optimize

        rng = np.random.default_rng(0)
        data = {w: generate_dataset(w, SimConfig(), rng)[0] for w in DATASET_IDS}["D1"]
        spec = builtin_model_specs("M1")
        res = aic(data, spec)
        assert res.converged
        minimize, calls = scipy.optimize.minimize, []

        def first_is_best(*args, **kwargs):
            out = minimize(*args, **kwargs)
            if calls:
                out.fun = out.fun + 1e-3
            calls.append(out.success)
            return out

        monkeypatch.setattr(scipy.optimize, "minimize", first_is_best)
        worse = aic(data, spec)
        assert calls[0] and len(calls) == 5
        assert not worse.converged
        assert abs(worse.max_loglik - res.max_loglik) < 1e-9

    @pytest.mark.parametrize("make_spec", [lm_spec, simple_spec, partial(general_spec, m=2)],
                             ids=["lm", "simple", "general"])
    def test_duplicated_column_keeps_the_maximum(self, rng, make_spec):
        """A rank-deficient design has the maximum of its column space."""
        data = make_dataset(rng, 80, 2, 2, 4)
        wide = Dataset(y=data.y, x=np.column_stack([data.x, data.x[:, :1]]), z=data.z,
                       group_of=data.group_of)
        assert abs(aic(wide, make_spec(3)).max_loglik - aic(data, make_spec(2)).max_loglik) < 1e-9

    def test_sampled_rho_boundary_matches_dense_gls(self):
        """Here the search runs to rho -> 1 (1 - rho below 1e-9); the profile still
        agrees with the dense GLS value, because the likelihood never inverts
        the nearly singular group-level covariance."""
        data = make_dataset(np.random.default_rng(3), 80, 2, 2, 4)
        spec = general_spec(2, m=2, sampled_rho=True)
        res = aic(data, spec)
        want = _dense_gls_loglik(data, spec, res.theta_hat["log_variances"])
        assert abs(res.max_loglik - want) < 1e-8


def _dense_gls_loglik(data, spec, log_variances):
    """Log likelihood maximized over the coefficients at fixed variances, from the dense n x n marginal."""
    layout = spec.layout
    m = layout.group_width
    v = np.exp(log_variances[:1 + m])
    cov = v[0] * np.eye(data.n)
    if m:
        if layout.z_effects:
            rho = np.tanh(log_variances[-1]) if layout.rho_sampled else layout.fixed_rho
            Z, se = data.z, assemble_sigma_eta(spec.eta_structure, v[1:], rho)
        else:
            Z, se = np.ones((data.n, 1)), v[1:, None]
        cov += (data.group_of[:, None] == data.group_of[None, :]) * (Z @ se @ Z.T)
    L = np.linalg.cholesky(cov)
    wx, wy = solve_triangular(L, data.x, lower=True), solve_triangular(L, data.y, lower=True)
    r = wy - wx @ np.linalg.lstsq(wx, wy, rcond=None)[0]
    return -0.5 * (data.n * LOG_2PI + 2.0 * np.sum(np.log(np.diag(L))) + r @ r)


class TestBayesFactor:
    def est(self, mean, std=0.1):
        return EvidenceEstimate(
            runs=(mean,), mean=mean, std=std, draws_per_stage=100,
            likelihood_mode="integrated", single_run=False,
        )

    def test_identical_models_no_evidence(self):
        bf = bayes_factor(self.est(-100.0), self.est(-100.0))
        assert bf.log_bf == 0.0
        assert bf.label == "no evidence"

    def test_sign_and_propagated_std(self):
        bf = bayes_factor(self.est(-100.0, 0.3), self.est(-104.0, 0.4))
        assert bf.log_bf == 4.0
        assert np.isclose(bf.std, 0.5)
        assert bf.label == "strong"


class TestConditionalEtaMeans:
    def test_simple_shrinkage_toward_zero(self, rng):
        data = make_dataset(rng, 60, 2, 0, 3)
        stats = precompute(data)
        spec = simple_spec(2)
        beta = np.zeros(2)
        eta = conditional_eta_means(stats, spec, np.array([1.0, 0.5]), beta)
        assert eta.shape == (3, 1)
        # raw group means shrunk by w_j < 1
        for j in range(3):
            idx = data.group_of == j + 1
            raw = data.y[idx].sum()
            w = 0.5 / (1.0 + idx.sum() * 0.5)
            assert np.isclose(eta[j, 0], w * raw)

    @pytest.mark.parametrize("rho", [0.3, 1.0 - 1e-9])
    def test_general_matches_dense_conditional_mean(self, rng, rho):
        """Against Sigma_eta Z_j^T V_j^-1 (y_j - X_j beta), V_j the dense
        n_j x n_j marginal covariance of group j; also next to the
        positive-definiteness bound, where Sigma_eta is nearly singular."""
        data = make_dataset(rng, 40, 2, 2, 4)
        spec = general_spec(2, m=2, rho=rho)
        theta = ThetaPoint(sigma2_y=0.7, nu=(np.array([0.4, 0.9]), rho))
        beta = np.array([0.3, -0.8])
        eta = conditional_eta_means(precompute(data), spec, theta_row(theta)[0], beta)
        se = assemble_sigma_eta(spec.eta_structure, *theta.nu)
        for j in range(4):
            idx = np.flatnonzero(data.group_of == j + 1)
            Zj = data.z[idx]
            Vj = 0.7 * np.eye(idx.size) + Zj @ se @ Zj.T
            want = se @ Zj.T @ np.linalg.solve(Vj, data.y[idx] - data.x[idx] @ beta)
            assert np.linalg.norm(eta[j] - want) < 1e-10 * np.linalg.norm(want)

    def test_lm_has_no_group_effects(self, rng):
        data = make_dataset(rng, 20, 2, 0, 2)
        with pytest.raises(ValueError):
            conditional_eta_means(precompute(data), lm_spec(2), np.array([1.0]), np.zeros(2))


class TestExportFits:
    """Fitted lines from ``build_radon_design``'s fit rows, on three counties:
    A and C have homes on both floors, B only basements."""

    RAW = RadonTable(
        county=("A", "A", "B", "B", "C", "A", "C"),
        floor=np.array([0, 1, 0, 0, 1, 0, 0]),
        log_radon=np.array([0.3, -0.2, 1.1, 0.8, 0.1, 0.5, -0.4]),
        log_uranium=np.array([0.2, 0.2, -0.7, -0.7, 0.9, 0.2, 0.9]),
    )

    def fits(self, model_id, **eta):
        data, meta = build_radon_design(self.RAW, model_id)
        post = PosteriorGaussian(mean=np.linspace(-1.0, 2.0, data.d), cov=np.eye(data.d), source="x")
        fits = {(r["county"], r["t"]): r for r in export_fits(post, meta, **eta)}
        return data, post, fits

    def test_m0_pooled_fit_identical_across_counties(self):
        _, _, fits = self.fits("M0")
        assert len(fits) == 6 and {c for c, _ in fits} == set("ABC")
        for t in (0, 1):
            assert len({fits[c, t]["mean"] for c in "ABC"}) == 1  # complete pooling

    def test_m3_absent_first_floor_flagged(self):
        _, _, fits = self.fits("M3")
        missing = [key for key, r in fits.items() if not r["present"]]
        assert missing == [("B", 1)]
        assert fits["B", 1]["mean"] is None and fits["B", 1]["sd"] is None
        assert fits["B", 0]["present"]

    def test_m4_includes_group_deviation(self):
        eta = np.array([[1.0], [-1.0], [0.5]])
        _, _, with_eta = self.fits("M4", eta_means=eta)
        _, _, without = self.fits("M4")
        assert np.isclose(with_eta["A", 0]["mean"] - without["A", 0]["mean"], 1.0)
        assert np.isclose(with_eta["B", 1]["mean"] - without["B", 1]["mean"], -1.0)

    @pytest.mark.parametrize("model_id", ["M2", "M5"])
    def test_lines_match_the_data_rows_of_a_county(self, model_id):
        """County A's homes at t = 0 (row 0) and t = 1 (row 1) lie on its fitted lines."""
        eta = np.array([[0.4, -0.3], [0.2, 0.1], [-0.5, 0.6]])
        eta_covs = np.stack([np.eye(2) * s for s in (0.1, 0.2, 0.3)])
        extra = dict(eta_means=eta, eta_covs=eta_covs) if model_id == "M5" else {}
        data, post, fits = self.fits(model_id, **extra)
        for t in (0, 1):
            x = data.x[t]
            mean, var = x @ post.mean, x @ post.cov @ x
            if model_id == "M5":
                mean, var = mean + data.z[t] @ eta[0], var + data.z[t] @ eta_covs[0] @ data.z[t]
            assert np.isclose(fits["A", t]["mean"], mean) and np.isclose(fits["A", t]["sd"], np.sqrt(var))


class TestMahalanobisNotPositiveDefinite:
    """A covariance without a Cholesky factor raises LinAlgError in both forms."""

    COV = np.array([[1.0, 2.0], [2.0, 1.0]])   # eigenvalues 3 and -1

    def test_gaussian_form(self):
        # PosteriorGaussian refuses such a covariance, so build one past its check.
        post = object.__new__(PosteriorGaussian)
        for name, value in (("mean", np.zeros(2)), ("cov", self.COV), ("source", "x")):
            object.__setattr__(post, name, value)
        with pytest.raises(np.linalg.LinAlgError):
            mahalanobis(np.ones(2), post)

    def test_trace_form(self):
        trace = [(np.zeros(2), np.eye(2)), (np.zeros(2), self.COV)]
        with pytest.raises(np.linalg.LinAlgError):
            mahalanobis(np.ones(2), trace)
