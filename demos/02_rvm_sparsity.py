"""Sparse basis selection in the constant-noise relevance vector machine.

Starting from no basis functions, the trainer greedily adds,
re-estimates, and deletes kernel basis functions to maximize the marginal
likelihood, alternating with a re-estimate of the noise; most columns are
never added, leaving a handful of relevance vectors.
"""

import numpy as np

from hetrvm import Dataset, KernelSpec, fit_rvm, predict

rng = np.random.default_rng(1)
X = np.sort(rng.uniform(0, 1, 80))[:, None]
y = np.sin(2 * np.pi * X[:, 0]) + 0.1 * rng.standard_normal(80)

model = fit_rvm(Dataset(X, y), KernelSpec(lengthscale=0.2))

print(f"kept {len(model.active_indices)} of 81 candidate basis functions")
# the RVM's log-noise is the constant noise_prior.mu0 = log sigma2
sd_orig = (float(np.exp(model.noise_prior.mu0 / 2))
           * model.standardization.y_scale)
print(f"noise sd estimate: {sd_orig:.3f} (true 0.1)")

print("\nrelevance vectors (column 0 is the bias):")
centers_orig = model.standardization.invert_x(model.centers)
for idx, a, w in zip(model.active_indices, model.alpha, model.mu_w):
    where = "bias" if idx == 0 else f"x={centers_orig[idx - 1, 0]:.3f}"
    print(f"  column {idx:3d}  {where:9s}  alpha={a:9.3g}  weight={w:+.3f}")

log = model.training_log
print(f"\nmarginal log-likelihood climbed {log[0]:.2f} -> {log[-1]:.2f} "
      f"over {len(log)} alternations (monotone: "
      f"{bool(np.all(np.diff(log) >= -1e-8))})")

mean = predict(model, X).latent_mean
print(f"training RMSE: {float(np.sqrt(np.mean((mean - y) ** 2))):.4f}")
