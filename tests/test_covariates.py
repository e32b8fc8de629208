import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal
from scipy.special import ndtr, ndtri

from rdsim import CovariateSpec, binary_correlation_bounds, binary_sampler, latent_correlation_matrix
from rdsim.covariates import (
    _bivariate_normal_cdf,
    _latent_normal_correlation,
    _legendre,
    _nearest_correlation,
    _normal_cdf,
)


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
            assert _bivariate_normal_cdf(h, k, rho) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "h, k, rho",
        [
            (-0.4375, -0.4375, 0.9999996),
            (0.3, 0.3, 1 - 1e-9),
            (1.5, -1.5, -(1 - 1e-9)),
            (-2.0, 2.0, -0.9999996),
            (0.7, 0.7001, 1 - 1e-9),
            (0.3, 0.300001, 1 - 1e-9),
        ],
    )
    def test_near_unit_correlation_against_oracle(self, h, k, rho):
        assert _bivariate_normal_cdf(h, k, rho) == pytest.approx(oracle_cdf(h, k, rho), abs=1e-12)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        h=st.floats(-4.0, 4.0),
        gap=st.one_of(
            st.just(0.0),
            st.floats(1e-7, 1e-6),
            st.floats(-1e-6, -1e-7),
            st.floats(1e-5, 4.0),
            st.floats(-4.0, -1e-5),
        ),
        digits=st.floats(0.0, 9.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_against_oracle_up_to_near_unit_correlation(self, h, gap, digits, sign):
        rho = sign * (1.0 - 10.0**-digits)
        assert _bivariate_normal_cdf(h, h + gap, rho) == pytest.approx(oracle_cdf(h, h + gap, rho), abs=1e-12)

    def test_normal_cdf_against_ndtr(self):
        x = np.linspace(-8.0, 8.0, 16001)
        ours = np.array([_normal_cdf(v) for v in x])
        assert np.max(np.abs(ours - ndtr(x))) <= 5e-16

    def test_independent_case(self):
        assert _bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_quadrant_identity(self):
        # Phi2(0,0;rho) = 1/4 + arcsin(rho)/(2*pi)
        for rho in (-0.8, -0.3, 0.2, 0.7):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert _bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-9)


class TestLatentCorrelation:
    def test_independence(self):
        assert _latent_normal_correlation(0.5, 0.5, 0.0) == 0.0

    def test_tetrachoric_identity_at_balanced_margins(self):
        # at p1 = p2 = 0.5 the latent solution is sin(pi * r / 2)
        for r in (-0.6, -0.2, 0.1, 0.45, 0.8):
            rho = _latent_normal_correlation(0.5, 0.5, r)
            assert rho == pytest.approx(math.sin(math.pi * r / 2.0), abs=1e-3)

    def test_cohort_pair_round_trip(self):
        p1, p2 = 0.645, 0.431
        rho = _latent_normal_correlation(p1, p2, 0.104)
        achieved = (oracle_cdf(ndtri(p1), ndtri(p2), rho) - p1 * p2) / math.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
        assert achieved == pytest.approx(0.104, abs=1e-4)

    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_near_bound_target_within_tolerance(self, p):
        rho = _latent_normal_correlation(p, p, 0.9999)
        h = float(ndtri(p))
        achieved = (oracle_cdf(h, h, rho) - p * p) / (p * (1 - p))
        assert abs(achieved - 0.9999) <= 1e-6

    def test_unreachable_tolerance_raises(self):
        # reaching 1 - 1e-6 would need a latent correlation beyond 1 - 1e-9
        with pytest.raises(ValueError, match=r"correlation 0\.999999 for marginals \(0\.5, 0\.5\)"):
            _latent_normal_correlation(0.5, 0.5, 1 - 1e-6)

    def test_monotone_in_rho(self):
        # the bisection relies on it: at fixed thresholds, Phi2 and so the binary correlation rise with rho
        h, k = ndtri(0.3), ndtri(0.6)
        values = [_bivariate_normal_cdf(h, k, rho) for rho in np.linspace(-0.9, 0.9, 13)]
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

    def test_infeasible_target_names_interval(self):
        # CovariateSpec owns the interval check; the latent solve only runs on a checked spec
        lo, hi = binary_correlation_bounds(0.9, 0.1)
        assert lo < 0.0 < hi
        r = hi + 0.05
        message = f"correlation {r} between 'a' and 'b' outside feasible interval ({lo:.6g}, {hi:.6g})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CovariateSpec(("a", "b"), [0.9, 0.1], [[1.0, r], [r, 1.0]])

    def test_names_and_marginals_must_align(self):
        for names, marginals in ((("a", "b"), [0.5]), (("a",), [0.5, 0.5])):
            with pytest.raises(ValueError, match=r"^names and marginals must align and be non-empty$"):
                CovariateSpec(names, marginals, np.eye(len(marginals)))

    def test_correlation_matrix_must_be_square(self):
        with pytest.raises(ValueError, match=r"^correlation matrix must be 2x2$"):
            CovariateSpec(("a", "b"), [0.5, 0.5], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("marginal", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_a_marginal_outside_the_unit_interval_is_refused(self, marginal):
        # NaN fails every comparison, so a check not written to refuse it lets it through to a
        # NaN threshold, which draws an all-zero column
        calls = [
            lambda: CovariateSpec(("a",), [marginal], [[1.0]]),
            lambda: CovariateSpec(("a", "b"), [0.5, marginal], np.eye(2)),
            lambda: binary_correlation_bounds(marginal, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^marginals must be strictly inside \(0, 1\)$"):
                call()


class TestGeneration:
    def test_single_covariate_marginal(self):
        spec = CovariateSpec(("z",), [0.5], np.eye(1))
        values = binary_sampler(spec).sample(100_000, np.random.default_rng(1))
        assert values.shape == (100_000, 1)
        assert values.mean() == pytest.approx(0.5, abs=0.01)

    def test_independent_pair_uncorrelated(self):
        spec = CovariateSpec(("x", "y"), [0.4, 0.6], np.eye(2))
        values = binary_sampler(spec).sample(100_000, np.random.default_rng(2))
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
        values = binary_sampler(spec).sample(100_000, np.random.default_rng(3))
        empirical = np.corrcoef(values.T)
        for i in range(3):
            assert values[:, i].mean() == pytest.approx(spec.marginals[i], abs=0.01)
            for j in range(i + 1, 3):
                assert empirical[i, j] == pytest.approx(spec.correlations[i, j], abs=0.02)

    def test_values_are_binary_and_ordered(self):
        spec = CovariateSpec(("a", "b"), [0.2, 0.8], np.eye(2))
        values = binary_sampler(spec).sample(5000, np.random.default_rng(4))
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
                    values = binary_sampler(spec).sample(n, rng)
                    assert values[:, 0].mean() == pytest.approx(p1, abs=0.01)
                    assert values[:, 1].mean() == pytest.approx(p2, abs=0.01)
                    assert np.corrcoef(values.T)[0, 1] == pytest.approx(target, abs=0.02)

    def test_compiled_sampler_reuse_is_deterministic(self):
        spec = CovariateSpec(("x", "y"), [0.3, 0.7], np.eye(2))
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

    def test_pairwise_feasible_spec_with_an_indefinite_latent_matrix_is_repaired(self):
        # each pair of balanced binaries can reach +-0.9, but the three latent correlations
        # (about +-0.988) cannot hold together
        correlations = [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
        spec = CovariateSpec(("a", "b", "c"), [0.5, 0.5, 0.5], correlations)
        with pytest.warns(UserWarning, match="^latent correlation matrix not positive definite"):
            latent = latent_correlation_matrix(spec)
        assert np.allclose(np.diag(latent), 1.0, rtol=0.0, atol=1e-12)
        assert np.linalg.eigvalsh(latent).min() > 0.0
        with pytest.warns(UserWarning, match="^latent correlation matrix not positive definite"):
            model = binary_sampler(spec)
        assert np.allclose(model.cholesky @ model.cholesky.T, latent, rtol=0.0, atol=1e-12)
        assert np.array_equal(model.thresholds, np.zeros(3))

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
        spec = CovariateSpec(("a",), [0.25], np.eye(1))
        model = binary_sampler(spec)
        assert model.thresholds[0] == pytest.approx(float(ndtri(0.25)))

    def test_thresholds_match_ndtri(self):
        marginals = [1e-6, 0.01, 0.127, 0.169, 0.25, 0.431, 0.5, 0.579, 0.645, 0.9, 1 - 1e-6]
        model = binary_sampler(CovariateSpec(tuple("abcdefghijk"), marginals, np.eye(11)))
        assert np.max(np.abs(model.thresholds - ndtri(marginals))) <= 1e-14


def test_import_loads_no_scipy():
    # scipy is a test-only oracle: the package and its CLI must not load it. The
    # pool, the quadrature rules and statistics load on first use: the pool with a
    # second worker, the rest when a covariate sampler is compiled
    code = (
        "import sys, numpy; before = set(sys.modules); "
        "import rdsim, rdsim.config, rdsim.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "rdsim.cli" in added
    unwanted = ("scipy", "multiprocessing", "concurrent.futures.process", "statistics", "numpy.polynomial")
    assert [m for m in added if any(m == name or m.startswith(name + ".") for name in unwanted)] == []


@pytest.mark.parametrize("n", [6, 12, 20])
def test_legendre_rules_are_leggauss_and_read_only(n):
    x, w = _legendre(n)
    expected_x, expected_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, expected_x) and np.array_equal(w, expected_w)
    assert _legendre(n)[0] is x  # built once
    for array in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
