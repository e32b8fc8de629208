"""Correlated binary covariates from the latent Gaussian threshold model.

Solves the latent correlations for a three-covariate specification with
weak positive dependence, draws a large sample, and compares empirical
marginals and pairwise correlations against the targets.
"""

import numpy as np

from rdsim import CovariateSpec, binary_correlation_bounds, binary_sampler
from rdsim.covariates import latent_correlation_matrix

spec = CovariateSpec(
    names=("CAS", "CIR", "HIV+"),
    marginals=[0.579, 0.439, 0.127],
    correlations=[
        [1.0, 0.104, 0.023],
        [0.104, 1.0, 0.046],
        [0.023, 0.046, 1.0],
    ],
)

latent = latent_correlation_matrix(spec)
print("latent normal correlations needed for the binary targets:")
for i in range(3):
    for j in range(i + 1, 3):
        lo, hi = binary_correlation_bounds(spec.marginals[i], spec.marginals[j])
        print(
            f"  {spec.names[i]}-{spec.names[j]}: target {spec.correlations[i, j]:+.3f} "
            f"(feasible {lo:+.3f}..{hi:+.3f}) -> latent {latent[i, j]:+.4f}"
        )

values = binary_sampler(spec).sample(100_000, np.random.default_rng(3))
empirical = np.corrcoef(values.T)
print("\nempirical check at n = 100000:")
for k, name in enumerate(spec.names):
    print(f"  prevalence {name:5s}: {values[:, k].mean():.4f}  (target {spec.marginals[k]})")
for i in range(3):
    for j in range(i + 1, 3):
        print(
            f"  corr {spec.names[i]}-{spec.names[j]:5s}: {empirical[i, j]:+.4f} "
            f"(target {spec.correlations[i, j]:+.3f})"
        )
