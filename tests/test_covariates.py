import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal
from scipy.special import ndtri

from rdsim import (
    CovariateSpec,
    binary_correlation,
    binary_correlation_bounds,
    binary_sampler,
    bivariate_normal_cdf,
    generate_binary_covariates,
    latent_correlation_matrix,
    latent_normal_correlation,
)
from rdsim.covariates import _nearest_correlation


def oracle_cdf(h, k, rho):
    """Genz's bivariate normal CDF as shipped in scipy, at its tightest tolerance."""
    return multivariate_normal(cov=[[1.0, rho], [rho, 1.0]], abseps=1e-13, seed=0).cdf([h, k])


class TestBivariateNormalCdf:
    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h, k = rng.normal(size=2) * 1.5
            rho = float(rng.uniform(-0.95, 0.95))
            expected = multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).cdf([h, k])
            assert bivariate_normal_cdf(h, k, rho) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "h, k, rho",
        [
            (-0.4375, -0.4375, 0.9999996),
            (0.3, 0.3, 1 - 1e-9),
            (1.5, -1.5, -(1 - 1e-9)),
            (-2.0, 2.0, -0.9999996),
            (0.7, 0.7001, 1 - 1e-9),
        ],
    )
    def test_near_unit_correlation_against_oracle(self, h, k, rho):
        assert bivariate_normal_cdf(h, k, rho) == pytest.approx(oracle_cdf(h, k, rho), abs=1e-12)

    # |h - k| is 0 or at least 1e-5: for gaps near 1e-6 at |rho| above
    # 1 - 1e-7 the quadrature misses 1e-12 (by up to 2e-9)
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        h=st.floats(-4.0, 4.0),
        gap=st.one_of(st.just(0.0), st.floats(1e-5, 4.0), st.floats(-4.0, -1e-5)),
        digits=st.floats(0.0, 9.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_against_oracle_up_to_near_unit_correlation(self, h, gap, digits, sign):
        rho = sign * (1.0 - 10.0**-digits)
        assert bivariate_normal_cdf(h, h + gap, rho) == pytest.approx(oracle_cdf(h, h + gap, rho), abs=1e-12)

    def test_independent_case(self):
        assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_quadrant_identity(self):
        # Phi2(0,0;rho) = 1/4 + arcsin(rho)/(2*pi)
        for rho in (-0.8, -0.3, 0.2, 0.7):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-9)


class TestLatentCorrelation:
    def test_independence(self):
        assert latent_normal_correlation(0.5, 0.5, 0.0) == 0.0

    def test_tetrachoric_identity_at_balanced_margins(self):
        # at p1 = p2 = 0.5 the latent solution is sin(pi * r / 2)
        for r in (-0.6, -0.2, 0.1, 0.45, 0.8):
            rho = latent_normal_correlation(0.5, 0.5, r)
            assert rho == pytest.approx(math.sin(math.pi * r / 2.0), abs=1e-3)

    def test_cohort_pair_round_trip(self):
        rho = latent_normal_correlation(0.645, 0.431, 0.104)
        assert binary_correlation(0.645, 0.431, rho) == pytest.approx(0.104, abs=1e-4)

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_near_bound_target_within_tolerance(self, p):
        rho = latent_normal_correlation(p, p, 0.9999)
        h = float(ndtri(p))
        achieved = (oracle_cdf(h, h, rho) - p * p) / (p * (1 - p))
        assert abs(achieved - 0.9999) <= 1e-6

    def test_unreachable_tolerance_raises(self):
        # reaching 1 - 1e-6 would need a latent correlation beyond 1 - 1e-9
        with pytest.raises(ValueError, match=r"correlation 0\.999999 for marginals \(0\.5, 0\.5\)"):
            latent_normal_correlation(0.5, 0.5, 1 - 1e-6)

    def test_infeasible_target_names_interval(self):
        lo, hi = binary_correlation_bounds(0.9, 0.1)
        with pytest.raises(ValueError, match="feasible"):
            latent_normal_correlation(0.9, 0.1, hi + 0.05)
        assert lo < 0.0 < hi

    def test_monotone_in_rho(self):
        values = [binary_correlation(0.3, 0.6, rho) for rho in np.linspace(-0.9, 0.9, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCovariateSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovariateSpec(("a", "b"), [0.5, 0.5], [[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            CovariateSpec(("a", "b"), [0.5, 0.5], [[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(ValueError, match="inside"):
            CovariateSpec(("a",), [1.0], [[1.0]])
        with pytest.raises(ValueError, match="feasible"):
            CovariateSpec(("a", "b"), [0.9, 0.1], [[1.0, 0.9], [0.9, 1.0]])

    def test_independent_constructor(self):
        spec = CovariateSpec.independent(("x", "y"), [0.3, 0.7])
        assert np.array_equal(spec.correlations, np.eye(2))


class TestGeneration:
    def test_single_covariate_marginal(self):
        spec = CovariateSpec.independent(("z",), [0.5])
        values = generate_binary_covariates(spec, 100_000, np.random.default_rng(1))
        assert values.shape == (100_000, 1)
        assert values.mean() == pytest.approx(0.5, abs=0.01)

    def test_independent_pair_uncorrelated(self):
        spec = CovariateSpec.independent(("x", "y"), [0.4, 0.6])
        values = generate_binary_covariates(spec, 100_000, np.random.default_rng(2))
        assert abs(np.corrcoef(values.T)[0, 1]) < 0.02

    def test_cohort_three_covariate_spec(self):
        # three attributes with weak positive pairwise dependence
        spec = CovariateSpec(
            names=("CAS", "CIR", "HIV+"),
            marginals=[0.645, 0.431, 0.169],
            correlations=[
                [1.0, 0.104, 0.023],
                [0.104, 1.0, 0.046],
                [0.023, 0.046, 1.0],
            ],
        )
        values = generate_binary_covariates(spec, 100_000, np.random.default_rng(3))
        empirical = np.corrcoef(values.T)
        for i in range(3):
            assert values[:, i].mean() == pytest.approx(spec.marginals[i], abs=0.01)
            for j in range(i + 1, 3):
                assert empirical[i, j] == pytest.approx(spec.correlations[i, j], abs=0.02)

    def test_values_are_binary_and_ordered(self):
        spec = CovariateSpec.independent(("a", "b"), [0.2, 0.8])
        values = generate_binary_covariates(spec, 5000, np.random.default_rng(4))
        assert values.dtype == np.int8
        assert set(np.unique(values)) <= {0, 1}
        # column order follows spec.names: low-prevalence column first
        assert values[:, 0].mean() < values[:, 1].mean()

    def test_round_trip_over_marginal_grid(self):
        # solve-then-simulate recovers targets across the feasible interior
        rng = np.random.default_rng(5)
        marginals = (0.1, 0.5, 0.9)
        n = 100_000
        for i, p1 in enumerate(marginals):
            for p2 in marginals[i:]:
                lo, hi = binary_correlation_bounds(p1, p2)
                for frac in (0.2, 0.5, 0.8):
                    target = lo + frac * (hi - lo)
                    spec = CovariateSpec(
                        ("u", "v"), [p1, p2],
                        [[1.0, target], [target, 1.0]],
                    )
                    values = generate_binary_covariates(spec, n, rng)
                    assert values[:, 0].mean() == pytest.approx(p1, abs=0.01)
                    assert values[:, 1].mean() == pytest.approx(p2, abs=0.01)
                    assert np.corrcoef(values.T)[0, 1] == pytest.approx(target, abs=0.02)

    def test_compiled_sampler_reuse_is_deterministic(self):
        spec = CovariateSpec.independent(("x", "y"), [0.3, 0.7])
        model = binary_sampler(spec)
        a = model.sample(1000, np.random.default_rng(7))
        b = model.sample(1000, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestLatentMatrixRepair:
    def test_nearest_correlation_projection(self):
        # indefinite input: eigenvalues of this matrix include a negative one
        bad = np.array(
            [
                [1.0, 0.9, -0.9],
                [0.9, 1.0, 0.9],
                [-0.9, 0.9, 1.0],
            ]
        )
        assert np.linalg.eigvalsh(bad).min() < 0
        repaired = _nearest_correlation(bad)
        assert np.linalg.eigvalsh(repaired).min() > 0
        assert np.allclose(np.diag(repaired), 1.0)

    def test_latent_matrix_positive_definite_for_valid_spec(self):
        spec = CovariateSpec(
            names=("a", "b", "c"),
            marginals=[0.579, 0.439, 0.127],
            correlations=[
                [1.0, 0.104, 0.023],
                [0.104, 1.0, 0.046],
                [0.023, 0.046, 1.0],
            ],
        )
        latent = latent_correlation_matrix(spec)
        assert np.linalg.eigvalsh(latent).min() > 0
        # latent correlations exceed the binary ones in magnitude for these marginals
        assert latent[0, 1] > 0.104

    def test_thresholds_match_marginal_quantiles(self):
        spec = CovariateSpec.independent(("a",), [0.25])
        model = binary_sampler(spec)
        assert model.thresholds[0] == pytest.approx(float(ndtri(0.25)))
