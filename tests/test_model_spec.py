import numpy as np
import pytest

from mlevidence.model_spec import (
    CorrelationPrior,
    EtaCovStructure,
    IGPrior,
    ModelSpec,
    NotPositiveDefiniteError,
    assemble_sigma_eta,
    assemble_sigma_eta_batch,
    from_config,
    load,
    save,
    to_config,
    validate,
)

from conftest import general_spec, lm_spec, make_dataset, nig_spec, simple_spec


class TestIGPrior:
    def test_mean(self):
        assert np.isclose(IGPrior(3.0, 0.4).mean, 0.2)

    def test_mean_undefined_below_one(self):
        assert not np.isfinite(IGPrior(0.5, 1.0).mean)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            IGPrior(-1.0, 1.0)

    @pytest.mark.parametrize("shape, scale", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_rejected(self, shape, scale):
        with pytest.raises(ValueError, match="finite"):
            IGPrior(shape, scale)


class TestCorrelationPrior:
    def test_fixed_requires_open_interval(self):
        with pytest.raises(ValueError):
            CorrelationPrior(kind="fixed", value=1.0)

    def test_truncated_normal_takes_no_value(self):
        with pytest.raises(ValueError):
            CorrelationPrior(kind="truncated_normal", value=0.2)


class TestAssembleSigmaEta:
    def test_diagonal_and_pattern(self):
        struct = EtaCovStructure(m=3, pattern=((0, 1),))
        v = np.array([1.0, 4.0, 9.0])
        s = assemble_sigma_eta(struct, v, 0.5)
        assert np.allclose(np.diag(s), v)
        assert np.isclose(s[0, 1], 0.5 * 1.0 * 2.0)
        assert s[0, 2] == 0.0 and s[1, 2] == 0.0
        assert np.allclose(s, s.T)

    def test_pattern_normalized_to_upper_triangle(self):
        a = EtaCovStructure(m=2, pattern=((1, 0),))
        b = EtaCovStructure(m=2, pattern=((0, 1),))
        assert a.pattern == b.pattern

    def test_non_pd_raises(self):
        # rho=0.99 on both off-diagonals of a 3x3 tridiagonal pattern breaks PD
        struct = EtaCovStructure(m=3, pattern=((0, 1), (1, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            assemble_sigma_eta(struct, np.ones(3), 0.99)

    def test_rho_zero_is_diagonal(self):
        struct = EtaCovStructure(m=2, pattern=((0, 1),))
        s = assemble_sigma_eta(struct, np.array([2.0, 3.0]), 0.0)
        assert np.allclose(s, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("variances, rho, factors", [
        # LAPACK factors the stack, but its smallest eigenvalue is -8.9e-16.
        ((5.725899520695733, 36139497.96042592), 1.0, True),
        # The smallest eigenvalue is 4.1e-25 > 0, but the stack does not factor.
        ((1.0614349312365783e-08, 3.992314979782062e-09), -1.0, False),
    ])
    def test_gate_needs_both_the_eigenvalue_and_the_factor(self, variances, rho, factors):
        """Neither test alone is the gate: each of these rows passes one and fails the other."""
        struct = EtaCovStructure(m=2, pattern=((0, 1),))
        v = np.array([variances])
        off = rho * np.sqrt(v[0, 0]) * np.sqrt(v[0, 1])    # as the gate assembles it
        raw = np.array([[v[0, 0], off], [off, v[0, 1]]])
        try:
            np.linalg.cholesky(raw)
            factored = True
        except np.linalg.LinAlgError:
            factored = False
        assert factored == factors
        assert (np.linalg.eigvalsh(raw)[0] > 0) != factors
        se, chol, ok = assemble_sigma_eta_batch(struct, v, np.array([rho]))
        assert not ok[0]
        np.testing.assert_array_equal(chol[0], np.eye(2))
        np.testing.assert_array_equal(se[0], np.eye(2))


class TestModelSpecValidation:
    def test_callers_arrays_stay_writeable_and_unshared(self):
        mu, cov = np.zeros(2), np.eye(2)
        spec = ModelSpec(family="LinearModel", prior_mean=mu, prior_cov=cov, ig_y=IGPrior(3.0, 0.4))
        mu[0] = cov[0, 0] = 5.0
        assert mu.flags.writeable and cov.flags.writeable
        assert spec.prior_mean[0] == 0.0 and spec.prior_cov[0, 0] == 1.0
        assert not spec.prior_mean.flags.writeable and not spec.prior_cov.flags.writeable

    def test_keeps_a_frozen_prior_factor(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = ModelSpec(family="LinearModel", prior_mean=np.zeros(2), prior_cov=cov,
                         ig_y=IGPrior(3.0, 0.4))
        np.testing.assert_array_equal(spec.prior_chol, np.linalg.cholesky(cov))
        assert not spec.prior_chol.flags.writeable
        assert "prior_chol" not in to_config(spec) and "prior_chol" not in repr(spec)

    @pytest.mark.parametrize("family, mean, cov, gamma", [
        ("LinearModel", [np.nan, 0.0], np.eye(2), None),
        ("LinearModel", [np.inf, 0.0], np.eye(2), None),
        ("LinearModel", [0.0, 0.0], np.diag([np.inf, 1.0]), None),
        ("LinearModelNIG", [0.0, 0.0], np.eye(2), np.inf),
    ])
    def test_non_finite_rejected(self, family, mean, cov, gamma):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(family=family, prior_mean=mean, prior_cov=cov,
                      ig_y=IGPrior(3.0, 0.4), gamma=gamma)

    def test_gamma_only_for_nig(self):
        with pytest.raises(ValueError):
            ModelSpec(
                family="LinearModel", prior_mean=np.zeros(2), prior_cov=np.eye(2),
                ig_y=IGPrior(3.0, 0.4), gamma=5.0,
            )

    def test_nig_requires_gamma(self):
        with pytest.raises(ValueError):
            ModelSpec(
                family="LinearModelNIG", prior_mean=np.zeros(2), prior_cov=np.eye(2),
                ig_y=IGPrior(3.0, 0.4),
            )

    def test_multilevel_requires_eta_priors(self):
        with pytest.raises(ValueError):
            ModelSpec(
                family="SimpleMultilevel", prior_mean=np.zeros(2), prior_cov=np.eye(2),
                ig_y=IGPrior(3.0, 0.4),
            )

    def test_layout_counts_variance_params(self):
        assert lm_spec(2).layout.n_params == 1
        assert nig_spec(2).layout.n_params == 1
        assert simple_spec(2).layout.n_params == 2
        assert general_spec(2, m=2).layout.n_params == 3
        assert general_spec(2, m=2, sampled_rho=True).layout.n_params == 4

    def test_validate_against_data(self, rng):
        data = make_dataset(rng, 12, 3, 2, 3)
        assert validate(general_spec(3, m=2), data) == []
        problems = validate(general_spec(3, m=4), data)
        assert problems and any("4" in p for p in problems)
        assert validate(lm_spec(5), data)  # width mismatch


class TestSerialization:
    @pytest.mark.parametrize(
        "spec", [lm_spec(2), nig_spec(3), simple_spec(2), general_spec(2, m=2),
                 general_spec(1, m=2, sampled_rho=True)],
        ids=["lm", "nig", "simple", "general-fixed", "general-sampled"],
    )
    def test_round_trip(self, spec):
        back = from_config(to_config(spec))
        assert back == spec

    def test_yaml_file_round_trip(self, tmp_path):
        spec = general_spec(2, m=3, pattern=((0, 1), (1, 2)))
        p = tmp_path / "spec.yaml"
        save(spec, p)
        assert load(p) == spec
