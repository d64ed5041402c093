import numpy as np
import pytest

from mlevidence.model_spec import (
    CorrelationPrior,
    EtaCovStructure,
    IGPrior,
    ModelSpec,
    NotPositiveDefiniteError,
    assemble_sigma_eta,
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


class TestModelSpecValidation:
    def test_callers_arrays_stay_writeable_and_unshared(self):
        mu, cov = np.zeros(2), np.eye(2)
        spec = ModelSpec(family="LinearModel", prior_mean=mu, prior_cov=cov, ig_y=IGPrior(3.0, 0.4))
        mu[0] = cov[0, 0] = 5.0
        assert mu.flags.writeable and cov.flags.writeable
        assert spec.prior_mean[0] == 0.0 and spec.prior_cov[0, 0] == 1.0
        assert not spec.prior_mean.flags.writeable and not spec.prior_cov.flags.writeable

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
