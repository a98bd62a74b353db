"""Compare the two inference routes for the log-variance process.

Both trainers share the same model; they differ in how they approximate
the posterior over the latent log noise variance g: a collapsed
variational bound optimized by quasi-Newton ascent versus expectation
propagation with Gaussian site factors.
"""

import numpy as np

from hetrvm import KernelSpec, SynthSpec, fit_ep, fit_vi, nlpd, predict, synth

train, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=3))
test, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=10_003))
kernel = KernelSpec(lengthscale=0.3)

vi = fit_vi(train, kernel)
ep = fit_ep(train, kernel)

print(f"vi: {vi.n_iter} outer iterations, status={vi.status}, "
      f"{len(vi.active_indices)} active basis")
print(f"ep: {ep.n_iter} passes, status={ep.status}, "
      f"{len(ep.active_indices)} active basis")

print(f"\nheld-out NLPD  vi={nlpd(predict(vi, test.X), test.y):.4f}  "
      f"ep={nlpd(predict(ep, test.X), test.y):.4f}")

# the two posteriors over g (the log noise variance, in the units of y^2)
# should agree on the broad noise profile
order = np.argsort(train.X[:, 0])
lo, hi = order[:20], order[-20:]
for name, model in (("vi", vi), ("ep", ep)):
    g_mean = predict(model, train.X).g_mean
    low = float(np.mean(g_mean[lo]))
    high = float(np.mean(g_mean[hi]))
    print(f"{name}: mean posterior g at small x {low:+.2f}, "
          f"at large x {high:+.2f}  (rise {high - low:+.2f})")
