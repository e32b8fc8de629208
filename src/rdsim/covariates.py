"""Correlated binary covariates via a latent Gaussian threshold model.

Each binary covariate is obtained by thresholding a standard normal at its
marginal quantile; pairwise dependence is induced by correlating the latent
normals. The latent correlation needed for a target Pearson correlation on
the binaries is solved per pair, and the assembled latent matrix is
repaired to the nearest correlation matrix when the pairwise solves leave
it indefinite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from math import asin, erfc, exp, pi, sqrt

import numpy as np

from .errors import RdsimError, _check_count, _check_real
from .tables import check_names

__all__ = [
    "CovariateSpec",
    "LatentBinaryModel",
    "binary_correlation_bounds",
    "latent_correlation_matrix",
    "binary_sampler",
]

# Latent correlations are solved strictly inside (-1, 1); the open slack
# only excludes targets at the exact Frechet boundary.
_RHO_LIMIT = 1.0 - 1e-9
# Tolerance of a latent solve on the binary correlation (inside the 1e-4 contract).
_CORRELATION_TOL = 1e-6


def _check_marginals(*marginals: float) -> list[float]:
    """The marginals as floats; refuse a non-number (a string is not parsed), one outside (0, 1) or NaN."""
    values = [_check_real("marginal", p) for p in marginals]
    if not all(0.0 < p < 1.0 for p in values):
        raise ValueError("marginals must be strictly inside (0, 1)")
    return values


def binary_correlation_bounds(p1: float, p2: float) -> tuple[float, float]:
    """Attainable Pearson-correlation interval for binaries with given marginals.

    Follows from the Frechet bounds on the joint success probability.
    """
    _check_marginals(p1, p2)
    denom = sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    lo = (max(0.0, p1 + p2 - 1.0) - p1 * p2) / denom
    hi = (min(p1, p2) - p1 * p2) / denom
    return lo, hi


def _inv_normal_cdf(p: float) -> float:
    """Standard normal quantile.

    ``statistics`` (with ``decimal`` and ``fractions``) loads on the first
    call, which compiling a covariate sampler makes, not with the package.
    """
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def _normal_cdf(x: float) -> float:
    """Standard normal CDF; the erfc form keeps relative accuracy in the lower tail."""
    return 0.5 * erfc(-x / sqrt(2.0))


@cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], as ``leggauss(n)``.

    Genz's bivariate normal scheme takes 6, 12 or 20 nodes as |rho| grows.
    Each rule is built on its first use, so ``numpy.polynomial`` loads with
    the first :func:`_bivariate_normal_cdf` call (a covariate sampler's
    compile makes one), not with the package.
    """
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for array in rule:
        array.flags.writeable = False
    return rule


def _bivariate_normal_cdf(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals with correlation rho.

    Evaluated as P(Z1 > -h, Z2 > -k) by Genz's BVNU (Drezner & Wesolowsky
    1990; Genz 2004). Below |rho| = 0.925 it integrates d/d(rho) Phi2 =
    phi2 over theta = asin(rho) with a fixed Gauss-Legendre rule; above, it
    integrates the remainder of an expansion in (1 - rho)(1 + rho) around
    the |rho| = 1 limit. The result is within 1e-12 of an adaptive
    reference evaluation (absolute tolerance 1e-13) for |rho| up to
    1 - 1e-9, including gaps |h - k| near 1e-6 there.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be strictly inside (-1, 1)")
    h, k = -h, -k
    x, w = _legendre(6 if abs(rho) < 0.3 else 12 if abs(rho) < 0.75 else 20)
    hk = h * k
    if abs(rho) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = asin(rho)
        sn = np.sin(asr * (x + 1.0) / 2.0)
        bvn = float(w @ np.exp((sn * hk - hs) / (1.0 - sn * sn)))
        return bvn * asr / (4.0 * pi) + _normal_cdf(-h) * _normal_cdf(-k)
    if rho < 0.0:
        k = -k
        hk = -hk
    a_s = (1.0 - rho) * (1.0 + rho)
    a = sqrt(a_s)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    # asymptotic term of the expansion, then its normal-CDF correction
    bvn = a * exp(-(bs / a_s + hk) / 2.0) * (
        1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_s * a_s / 5.0
    )
    if hk > -160.0:
        b = sqrt(bs)
        bvn -= (
            exp(-hk / 2.0) * sqrt(2.0 * pi) * _normal_cdf(-b / a) * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
    # Gauss-Legendre remainder over [0, a], both halves of the rule at once;
    # nodes whose Gaussian factor is below exp(-100) add nothing
    half = a / 2.0
    xs = (half * (x + 1.0)) ** 2
    asr = -(bs / xs + hk) / 2.0
    keep = asr > -100.0
    xs, asr = xs[keep], asr[keep]
    rs = np.sqrt(1.0 - xs)
    sp = 1.0 + c * xs * (1.0 + d * xs)
    ep = np.exp(-(hk / 2.0) * xs / (1.0 + rs) ** 2) / rs
    bvn = (half * float(w[keep] @ (np.exp(asr) * (sp - ep))) - bvn) / (2.0 * pi)
    if rho > 0.0:
        return bvn + _normal_cdf(-max(h, k))
    return -bvn + max(0.0, _normal_cdf(-h) - _normal_cdf(-k))


def _latent_normal_correlation(p1: float, p2: float, target: float) -> float:
    """Solve for the latent normal correlation matching a binary correlation.

    Bisection on rho in (-1, 1); the Pearson correlation of the binaries
    is strictly increasing in rho. The first midpoint is 0, so a zero
    target returns 0. :class:`CovariateSpec` has already checked the
    marginals and that ``target`` is inside their feasible interval.

    Args:
        p1: First marginal, in (0, 1).
        p2: Second marginal, in (0, 1).
        target: Desired Pearson correlation of the binaries.

    Returns:
        Latent correlation rho whose binary correlation is within 1e-6 of
        ``target``.

    Raises:
        ValueError: If reaching ``target`` would need |rho| beyond 1 - 1e-9.
    """
    h, k = _inv_normal_cdf(p1), _inv_normal_cdf(p2)
    denom = sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    lo, hi = -_RHO_LIMIT, _RHO_LIMIT
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = (_bivariate_normal_cdf(h, k, mid) - p1 * p2) / denom
        if abs(value - target) <= _CORRELATION_TOL:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    raise ValueError(
        f"correlation {target} for marginals ({p1}, {p2}) not reached within "
        f"{_CORRELATION_TOL:g} by a latent correlation inside +-{_RHO_LIMIT!r}"
    )


@dataclass(frozen=True)
class CovariateSpec:
    """Target marginals and pairwise Pearson correlations for binary covariates.

    Attributes:
        names: Covariate labels, one per column.
        marginals: Target prevalences, each strictly inside (0, 1).
        correlations: Symmetric target correlation matrix with unit
            diagonal; each off-diagonal entry must be feasible for its pair
            of marginals.
    """

    names: tuple[str, ...]
    marginals: np.ndarray
    correlations: np.ndarray

    def __post_init__(self):
        names = check_names(self.names)
        marginals = np.array(_check_marginals(*np.asarray(self.marginals, dtype=object).ravel().tolist()))
        m = marginals.size
        if len(names) != m or m < 1:
            raise ValueError("names and marginals must align and be non-empty")
        given = np.asarray(self.correlations, dtype=object)
        corr = np.reshape([_check_real("correlation", r) for r in given.ravel().tolist()], given.shape)
        if corr.shape != (m, m):
            raise ValueError(f"correlation matrix must be {m}x{m}")
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        for i in range(m):
            for j in range(i + 1, m):
                lo, hi = binary_correlation_bounds(marginals[i], marginals[j])
                r = corr[i, j]
                if not lo < r < hi:
                    raise ValueError(
                        f"correlation {r} between {names[i]!r} and {names[j]!r} "
                        f"outside feasible interval ({lo:.6g}, {hi:.6g})"
                    )
        marginals.flags.writeable = False
        corr.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "correlations", corr)


def _nearest_correlation(matrix: np.ndarray) -> np.ndarray:
    """Project to the nearest correlation matrix by eigenvalue clipping."""
    values, vectors = np.linalg.eigh(matrix)
    clipped = (vectors * np.maximum(values, 1e-6)) @ vectors.T
    scale = np.sqrt(np.diag(clipped))
    return clipped / np.outer(scale, scale)


def latent_correlation_matrix(spec: CovariateSpec) -> np.ndarray:
    """Pairwise latent correlations assembled into one matrix.

    If the pairwise solves produce an indefinite matrix, it is projected to
    the nearest correlation matrix (eigenvalues clipped at 1e-6) with a
    warning.
    """
    m = spec.marginals.size
    latent = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            latent[i, j] = latent[j, i] = _latent_normal_correlation(
                spec.marginals[i], spec.marginals[j], spec.correlations[i, j]
            )
    if np.linalg.eigvalsh(latent).min() <= 0.0:
        warnings.warn(
            "latent correlation matrix not positive definite; "
            "projected to the nearest correlation matrix",
            stacklevel=2,
        )
        latent = _nearest_correlation(latent)
    return latent


@dataclass(frozen=True)
class LatentBinaryModel:
    """Compiled sampler state: latent Cholesky factor plus thresholds.

    Solving latent correlations takes many bivariate normal CDFs, so
    callers drawing many replicates compile once and sample repeatedly.
    """

    thresholds: np.ndarray
    cholesky: np.ndarray

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an ``(n, m)`` matrix of 0/1 values, one column per covariate in the compiled spec's order."""
        _check_count("n", n, 1)
        latent = rng.standard_normal((n, self.thresholds.size)) @ self.cholesky.T
        return (latent <= self.thresholds).astype(np.int8)


def binary_sampler(spec: CovariateSpec) -> LatentBinaryModel:
    """Compile ``spec`` into a reusable :class:`LatentBinaryModel`."""
    latent = latent_correlation_matrix(spec)
    try:
        chol = np.linalg.cholesky(latent)
    except np.linalg.LinAlgError as exc:
        raise RdsimError("latent correlation matrix is not repairable") from exc
    return LatentBinaryModel(
        thresholds=np.array([_inv_normal_cdf(p) for p in spec.marginals]),
        cholesky=chol,
    )
