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
from math import asin, cos, exp, pi, sin, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .errors import RdsimError

__all__ = [
    "CovariateSpec",
    "LatentBinaryModel",
    "binary_correlation_bounds",
    "bivariate_normal_cdf",
    "binary_correlation",
    "latent_normal_correlation",
    "latent_correlation_matrix",
    "binary_sampler",
    "generate_binary_covariates",
]

# Latent correlations are solved strictly inside (-1, 1); the open slack
# only excludes targets at the exact Frechet boundary.
_RHO_LIMIT = 1.0 - 1e-9
# Tolerance of a latent solve on the binary correlation (inside the 1e-4 contract).
_CORRELATION_TOL = 1e-6


def binary_correlation_bounds(p1: float, p2: float) -> tuple[float, float]:
    """Attainable Pearson-correlation interval for binaries with given marginals.

    Follows from the Frechet bounds on the joint success probability.
    """
    for p in (p1, p2):
        if not 0.0 < p < 1.0:
            raise ValueError("marginals must be strictly inside (0, 1)")
    denom = sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    lo = (max(0.0, p1 + p2 - 1.0) - p1 * p2) / denom
    hi = (min(p1, p2) - p1 * p2) / denom
    return lo, hi


def _bvn_density(theta: float, h: float, k: float) -> float:
    return exp(-(h * h - 2.0 * h * k * sin(theta) + k * k) / (2.0 * cos(theta) ** 2))


def bivariate_normal_cdf(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normals with correlation rho.

    Integrates the identity d/d(rho) Phi2(h, k; rho) = phi2(h, k; rho) from
    the independent case over theta = asin(rho) (Genz 2004), which cancels
    the 1/sqrt(1 - rho^2) singularity of the density. The result is within
    1e-12 of ``scipy.stats.multivariate_normal`` for |rho| up to 1 - 1e-9
    when h = k or |h - k| >= 1e-5; gaps near 1e-6 at |rho| above 1 - 1e-7
    miss by up to 2e-9, as the quadrature's first rule steps over them.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be strictly inside (-1, 1)")
    value, _ = quad(_bvn_density, 0.0, asin(rho), args=(h, k), epsabs=1e-12, epsrel=1e-10, limit=200)
    return float(ndtr(h) * ndtr(k)) + value / (2.0 * pi)


def binary_correlation(p1: float, p2: float, rho: float) -> float:
    """Pearson correlation of thresholded binaries given latent correlation."""
    h = float(ndtri(p1))
    k = float(ndtri(p2))
    p11 = bivariate_normal_cdf(h, k, rho)
    return (p11 - p1 * p2) / sqrt(p1 * (1 - p1) * p2 * (1 - p2))


def latent_normal_correlation(p1: float, p2: float, target: float) -> float:
    """Solve for the latent normal correlation matching a binary correlation.

    Bisection on rho in (-1, 1); :func:`binary_correlation` is strictly
    increasing in rho. The first midpoint is 0, so a zero target returns 0.

    Args:
        p1: First marginal, in (0, 1).
        p2: Second marginal, in (0, 1).
        target: Desired Pearson correlation of the binaries.

    Returns:
        Latent correlation rho with ``binary_correlation(p1, p2, rho)``
        within 1e-6 of ``target``.

    Raises:
        ValueError: If ``target`` is outside the feasible interval implied
            by the marginals (the message names that interval), or if
            reaching it would need |rho| beyond 1 - 1e-9.
    """
    lo_feas, hi_feas = binary_correlation_bounds(p1, p2)
    if not lo_feas < target < hi_feas:
        raise ValueError(
            f"correlation {target} infeasible for marginals ({p1}, {p2}); "
            f"feasible open interval is ({lo_feas:.6g}, {hi_feas:.6g})"
        )
    lo, hi = -_RHO_LIMIT, _RHO_LIMIT
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = binary_correlation(p1, p2, mid)
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
        names = tuple(self.names)
        marginals = np.asarray(self.marginals, dtype=float).ravel()
        m = marginals.size
        if len(names) != m or m < 1:
            raise ValueError("names and marginals must align and be non-empty")
        if len(set(names)) != m:
            raise ValueError("covariate names must be unique")
        if np.any(marginals <= 0.0) or np.any(marginals >= 1.0):
            raise ValueError("marginals must be strictly inside (0, 1)")
        corr = np.asarray(self.correlations, dtype=float)
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
        corr = corr.copy()
        corr.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "correlations", corr)

    @classmethod
    def independent(cls, names, marginals) -> "CovariateSpec":
        m = len(names)
        return cls(tuple(names), np.asarray(marginals, dtype=float), np.eye(m))


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
            latent[i, j] = latent[j, i] = latent_normal_correlation(
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

    Solving latent correlations involves quadrature, so callers drawing
    many replicates compile once and sample repeatedly.
    """

    names: tuple[str, ...]
    thresholds: np.ndarray
    cholesky: np.ndarray

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw an ``(n, m)`` matrix of 0/1 values."""
        if n < 1:
            raise ValueError("n must be >= 1")
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
        names=spec.names,
        thresholds=ndtri(spec.marginals),
        cholesky=chol,
    )


def generate_binary_covariates(spec: CovariateSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` rows of correlated binaries matching ``spec``.

    Columns follow ``spec.names`` order; empirical marginals and pairwise
    correlations converge to the targets as ``n`` grows.
    """
    return binary_sampler(spec).sample(n, rng)
