import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import invgamma

from mlevidence.data_model import Dataset
from mlevidence.likelihood_core import ThetaPoint, precompute
from mlevidence.model_spec import IGPrior, ModelSpec
from mlevidence.analytic_evidence import (
    QuadratureError,
    nig_log_evidence,
    nig_posterior,
    quadrature_evidence,
    quadrature_log_integrated,
)

from conftest import general_spec, lm_spec, make_dataset, nig_spec, simple_spec


class TestNIGPosterior:
    def test_prior_recovery_on_empty_data(self):
        data = Dataset(
            y=np.zeros(0), x=np.zeros((0, 2)), z=np.zeros((0, 0)),
            group_of=np.zeros(0, dtype=int),
        )
        stats = precompute(data)
        spec = nig_spec(2, gamma=2.0)
        post = nig_posterior(stats, spec)
        assert post.shape == spec.ig_y.shape
        assert np.isclose(post.scale, spec.ig_y.scale)
        assert np.allclose(post.mean, 0.0)
        assert np.allclose(post.cov_factor, 2.0 * 0.7 * np.eye(2))

    def test_posterior_update(self, rng):
        data = make_dataset(rng, 25, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2, gamma=2.0)
        post = nig_posterior(stats, spec)
        prec = np.linalg.inv(2.0 * 0.7 * np.eye(2)) + stats.gram_xx
        ref_cov = np.linalg.inv(prec)
        assert np.allclose(post.cov_factor, ref_cov, atol=1e-10)
        assert np.allclose(post.mean, ref_cov @ stats.sum_xy, atol=1e-10)
        assert np.isclose(post.shape, 25 / 2 + 3.0)
        b_post = 0.4 + 0.5 * (stats.sum_yy - stats.sum_xy @ ref_cov @ stats.sum_xy)
        assert np.isclose(post.scale, b_post)

    def test_scale_decreases_never(self, rng):
        # the posterior inverse-gamma scale can only grow from the prior scale
        for _ in range(5):
            data = make_dataset(rng, 10, 2, 0, 2)
            post = nig_posterior(precompute(data), nig_spec(2))
            assert post.scale >= 0.4 - 1e-12


class TestNIGEvidence:
    def test_matches_quadrature(self, rng):
        data = make_dataset(rng, 6, 2, 0, 2)
        stats = precompute(data)
        spec = nig_spec(2)
        ref, err = quadrature_evidence(data, spec)
        assert err < 1e-4
        assert abs(nig_log_evidence(stats, spec) - ref) < 1e-4

    def test_nonzero_prior_mean_matches_quadrature(self, rng):
        data = make_dataset(rng, 40, 1, 0, 1)
        spec = ModelSpec(
            family="LinearModelNIG", prior_mean=np.array([2.0]), prior_cov=0.7 * np.eye(1),
            ig_y=IGPrior(3.0, 0.4), gamma=2.0,
        )
        ref, err = quadrature_evidence(data, spec)
        assert err < 1e-4
        assert abs(nig_log_evidence(precompute(data), spec) - ref) < 1e-4

    def test_evidence_is_sum_of_one_point_updates(self, rng):
        """Chain rule: evidence factorizes over a data split."""
        data = make_dataset(rng, 10, 2, 0, 1)
        spec = nig_spec(2)
        full = nig_log_evidence(precompute(data), spec)
        # evidence of first k rows + conditional evidence of rest given posterior
        head = Dataset(
            y=data.y[:4], x=data.x[:4], z=np.zeros((4, 0)),
            group_of=np.ones(4, dtype=int),
        )
        post = nig_posterior(precompute(head), spec)
        import mlevidence.model_spec as ms

        # continue with the posterior as the new prior
        spec_tail = ms.ModelSpec(
            family="LinearModelNIG", prior_mean=np.zeros(2),
            prior_cov=post.cov_factor / 1.0, ig_y=ms.IGPrior(post.shape, post.scale),
            gamma=1.0,
        )
        # shift to the posterior mean: subtract the fitted part from y
        tail_y = data.y[4:] - data.x[4:] @ post.mean
        tail = Dataset(
            y=tail_y, x=data.x[4:], z=np.zeros((6, 0)), group_of=np.ones(6, dtype=int)
        )
        part = nig_log_evidence(precompute(head), spec) + nig_log_evidence(
            precompute(tail), spec_tail
        )
        assert abs(full - part) < 1e-8

    def test_requires_nig_family(self, rng):
        data = make_dataset(rng, 5, 2, 0, 1)
        with pytest.raises(ValueError):
            nig_log_evidence(precompute(data), lm_spec(2))


class TestQuadratureOracle:
    def test_dimension_guard(self, rng):
        data = make_dataset(rng, 5, 4, 0, 1)
        with pytest.raises(QuadratureError):
            quadrature_log_integrated(data, lm_spec(4), ThetaPoint(sigma2_y=1.0))

    def test_achieved_error_reported(self, rng):
        data = make_dataset(rng, 5, 1, 0, 1)
        val, err = quadrature_log_integrated(data, lm_spec(1), ThetaPoint(sigma2_y=0.5))
        assert np.isfinite(val)
        assert err < 1e-8

    def test_sampled_correlation_rejected(self, rng):
        data = make_dataset(rng, 4, 1, 2, 1)
        spec = general_spec(1, m=2, sampled_rho=True)
        with pytest.raises(QuadratureError):
            quadrature_evidence(data, spec)

    def test_group_intercept_ignores_z_columns(self):
        """A SimpleMultilevel spec integrates one intercept per group even
        when the data carry z columns."""
        data = make_dataset(np.random.default_rng(1), 8, 1, 2, 2)
        theta = ThetaPoint(sigma2_y=0.8, sigma2_eta=0.5)
        val, err = quadrature_log_integrated(data, simple_spec(1), theta)
        assert err < 1e-8
        assert abs(val - (-10.4114387352)) < 1e-8

    def test_gaussian_normalization_integrates_to_one(self):
        """With no data the latent integral is exactly the prior mass."""
        data = Dataset(
            y=np.zeros(0), x=np.zeros((0, 2)), z=np.zeros((0, 0)),
            group_of=np.zeros(0, dtype=int),
        )
        val, err = quadrature_log_integrated(data, lm_spec(2), ThetaPoint(sigma2_y=1.0))
        assert abs(val) < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.5, 10.0))
def test_property_nig_evidence_vs_ig_mixture(seed, gamma):
    """The evidence equals the inverse-gamma mixture of conditional marginals."""
    r = np.random.default_rng(seed)
    data = make_dataset(r, int(r.integers(2, 7)), 2, 0, 1)
    stats = precompute(data)
    spec = nig_spec(2, gamma=gamma)
    from mlevidence.likelihood_core import batch_log_integrated
    from scipy.special import logsumexp

    # dense grid over sigma2 under its IG(3, 0.4) prior, log-scale trapezoid
    u = np.linspace(-12, 6, 6000)
    s2 = np.exp(u)
    lp = invgamma.logpdf(s2, 3.0, scale=0.4) + u
    vals = batch_log_integrated(stats, spec)(s2[:, None]) + lp
    mix = logsumexp(vals) + np.log(u[1] - u[0])
    assert abs(nig_log_evidence(stats, spec) - mix) < 1e-5
