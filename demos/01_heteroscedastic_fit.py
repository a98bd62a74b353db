"""Fit the heteroscedastic model on a sine benchmark with a noise ramp.

The generator draws y = 2 sin(2 pi x) + eps with sd(eps) = 0.5 + x, so the
noise level triples across the input range.  A constant-noise baseline has
to average that ramp away; the variational model recovers it.
"""

import numpy as np

from hetrvm import (KernelSpec, SynthSpec, fit_rvm, fit_vi, nlpd, predict,
                    rmse, synth)

train, true_sd = synth(SynthSpec(generator="goldberg_sine", n=100, seed=1))
test, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=10_001))
kernel = KernelSpec(lengthscale=0.3)

vi = fit_vi(train, kernel)
rvm = fit_rvm(train, kernel)

print(f"variational fit: status={vi.status}, iterations={vi.n_iter}, "
      f"active basis {len(vi.active_indices)}/101")
print(f"baseline fit:    status={rvm.status}, "
      f"active basis {len(rvm.active_indices)}/101, one noise sd "
      f"{np.exp(rvm.noise_prior.mu0 / 2) * rvm.standardization.y_scale:.2f}")

vi_pred = predict(vi, test.X)
rvm_pred = predict(rvm, test.X)
print(f"\nheld-out RMSE   vi={rmse(vi_pred.latent_mean, test.y):.4f}  "
      f"rvm={rmse(rvm_pred.latent_mean, test.y):.4f}")
print(f"held-out NLPD   vi={nlpd(vi_pred, test.y):.4f}  "
      f"rvm={nlpd(rvm_pred, test.y):.4f}   (lower is better)")

print("\nrecovered noise standard deviation along the ramp:")
grid = np.linspace(0.05, 0.95, 7)[:, None]
pred = predict(vi, grid)
noise_sd = np.sqrt(pred.total_var - pred.latent_var)
print(f"  {'x':>5} {'true sd':>8} {'learned sd':>11}")
for x, sd in zip(grid[:, 0], noise_sd):
    print(f"  {x:5.2f} {0.5 + x:8.2f} {sd:11.2f}")
