"""Acceptance suite: twelve verdicts, one per release criterion.

Each test prints a single PASS/FAIL line (written straight to the real
stdout so it survives pytest's capture) and then asserts.  Oracles are
independent of the library code paths they check: Gauss-Hermite and dense
grids for integrals, Monte Carlo for the marginal likelihood, central
differences for gradients, closed-form Gaussian algebra for EP.
"""

import time

import conftest
import numpy as np
import pytest
from scipy.stats import multivariate_normal

from hetrvm.data import SynthSpec, synth
from hetrvm.ep import EpConfig, cavity, ep_posterior, fit_ep, \
    site_update, tilted_moments
from hetrvm.kernels import KernelSpec, build_design_matrix
from hetrvm.numerics import gauss_hermite
from hetrvm.predict import nlpd, predict
from hetrvm.rvm import fit_rvm
from hetrvm.serialize import load_model, save_model
from hetrvm.vi import VIConfig, _bound_value_grad, _q_cov, \
    collapsed_bound, fit_vi, update_alpha
from conftest import make_state, noise_split
from oracles import expected_loglik, grad_check, prior_cov

# np.trapezoid is new in numpy 2.0; pyproject.toml accepts numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz

GOLDBERG_KERNEL = KernelSpec(lengthscale=0.3)
CONST_KERNEL = KernelSpec(lengthscale=0.5)
N_SEEDS = 10


def verdict(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    conftest.VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def goldberg_fits():
    out = []
    for seed in range(N_SEEDS):
        train, _ = synth(SynthSpec(generator="goldberg_sine", n=100,
                                   seed=seed))
        test, _ = synth(SynthSpec(generator="goldberg_sine", n=100,
                                  seed=seed + 10_000))
        vi = fit_vi(train, GOLDBERG_KERNEL)
        rvm = fit_rvm(train, GOLDBERG_KERNEL)
        out.append((train, test, vi, rvm))
    return out


@pytest.fixture(scope="module")
def const_fits():
    out = []
    for seed in range(N_SEEDS):
        train, _ = synth(SynthSpec(generator="const_noise", n=100, seed=seed))
        test, _ = synth(SynthSpec(generator="const_noise", n=100,
                                  seed=seed + 10_000))
        vi = fit_vi(train, CONST_KERNEL)
        rvm = fit_rvm(train, CONST_KERNEL)
        out.append((train, test, vi, rvm))
    return out


def test_criterion_1_expectation_identity():
    """expected_loglik equals the quadrature value of the expected
    log-likelihood on >= 100 random configurations, N <= 4, in < 5 s."""
    rng = np.random.default_rng(0)
    quad = gauss_hermite(64)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        y = rng.normal(size=n)
        Phi = rng.normal(size=(n, m))
        w = rng.normal(size=m)
        mu = rng.normal(size=n)
        A = rng.normal(size=(n, n)) * 0.4
        Sigma = A @ A.T + np.diag(rng.uniform(0.1, 1.0, n))
        got = expected_loglik(y, w, Phi, mu, Sigma)
        f = Phi @ w
        sd = np.sqrt(np.diag(Sigma))
        want = 0.0
        for i in range(n):
            g = mu[i] + sd[i] * quad.nodes
            ll = (-0.5 * np.log(2 * np.pi) - 0.5 * g
                  - 0.5 * (y[i] - f[i]) ** 2 * np.exp(-g))
            want += float(quad.weights @ ll)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    verdict(1, "expectation identity", worst < 1e-6 and elapsed < 5.0,
            f"max |diff| {worst:.2e} over 120 configs, {elapsed:.2f}s")


def test_criterion_2_clamped_g_equivalence():
    """Fixing q(g) to a point mass at c reproduces the constant-noise
    weight posterior with variance e^c to 1e-10.  With q(g) clamped only
    the basis selection runs, so it is ``update_alpha`` at r = e^c 1 from
    the empty basis."""
    data, _ = synth(SynthSpec(generator="const_noise", n=20, seed=0))
    c = np.log(0.09)
    Phi = build_design_matrix(data.X, CONST_KERNEL)
    active, alpha, _, (mu_w, Sigma_w) = update_alpha(
        [], np.zeros(0), Phi, np.full(data.n, np.exp(c)), data.y,
        VIConfig().tol)
    Phi_a = Phi[:, active]
    s2 = np.exp(c)
    H = np.diag(alpha) + Phi_a.T @ Phi_a / s2
    mu_ref = np.linalg.solve(H, Phi_a.T @ data.y / s2)
    Sigma_ref = np.linalg.inv(H)
    err = max(float(np.max(np.abs(mu_w - mu_ref))),
              float(np.max(np.abs(Sigma_w - Sigma_ref))))
    verdict(2, "clamped-g equivalence", err < 1e-10, f"max |diff| {err:.2e}")


def test_criterion_3_bound_validity():
    """The collapsed bound never exceeds a 1e6-sample Monte Carlo estimate
    of the true log marginal likelihood by more than 3 standard errors."""
    rng = np.random.default_rng(1)
    n_samples = 1_000_000
    chunk = 100_000
    t0 = time.perf_counter()
    details = []
    ok = True
    for trial in range(5):
        n = int(rng.integers(4, 9))
        X = rng.uniform(0, 1, (n, 1))
        Phi = build_design_matrix(X, KernelSpec())
        y = rng.normal(size=n)
        alpha = rng.uniform(0.3, 3.0, Phi.shape[1])
        st = make_state(X, eta=rng.normal(size=n),
                        log_ell=float(rng.uniform(-0.5, 0.5)),
                        log_sv=float(rng.uniform(-0.5, 0.5)),
                        mu0=float(rng.normal() * 0.5),
                        alpha=alpha, active=list(range(Phi.shape[1])))
        bound = collapsed_bound(st, Phi, y)

        # oracle: marginalize w analytically, Monte Carlo over g ~ prior
        base = Phi @ np.diag(1.0 / alpha) @ Phi.T
        Lk = np.linalg.cholesky(st.K)
        logps = np.empty(n_samples)
        for lo in range(0, n_samples, chunk):
            hi = lo + chunk
            z = rng.standard_normal((chunk, n))
            g = st.mu0 + z @ Lk.T
            C = base[None, :, :] + np.zeros((chunk, 1, 1))
            idx = np.arange(n)
            C[:, idx, idx] += np.exp(np.clip(g, -700, 700))
            Lc = np.linalg.cholesky(C)
            logdet = 2.0 * np.sum(np.log(Lc[:, idx, idx]), axis=1)
            sol = np.linalg.solve(Lc, np.broadcast_to(y, (chunk, n))[..., None])
            quad_term = np.sum(sol[..., 0] ** 2, axis=1)
            logps[lo:hi] = -0.5 * (n * np.log(2 * np.pi) + logdet + quad_term)
        shift = logps.max()
        w = np.exp(logps - shift)
        log_z = shift + np.log(w.mean())
        se_log = w.std() / (np.sqrt(n_samples) * w.mean())
        margin = log_z + 3.0 * se_log - bound
        details.append(f"{margin:+.3f}")
        ok = ok and (bound <= log_z + 3.0 * se_log)
    elapsed = time.perf_counter() - t0
    verdict(3, "bound validity vs Monte Carlo",
            ok and elapsed < 60.0,
            f"slack (logZ+3SE-F) {', '.join(details)}; {elapsed:.1f}s")


def test_criterion_4_bound_monotonicity(goldberg_fits):
    """Training bound non-decreasing at every iteration."""
    worst_drop = -np.inf
    for _, _, vi, _ in goldberg_fits:
        log = vi.training_log
        for i in range(1, len(log)):
            worst_drop = max(worst_drop, log[i - 1] - log[i])
    verdict(4, "bound monotonicity", worst_drop < 1e-8,
            f"worst drop {worst_drop:.2e}")


def test_criterion_5_gradient_correctness():
    """The analytic bound gradient in (eta, mu0) that L-BFGS reads
    matches central differences of the dense bound to 1e-4 on 50 random
    interior states, N <= 6.  The noise-GP hyperparameters (random per
    state) are inputs of the bound, through its prior covariance K, not
    variables of it."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        X = rng.uniform(0, 1, (n, 1))
        Phi = build_design_matrix(X, KernelSpec())
        y = rng.normal(size=n)
        alpha = rng.uniform(0.2, 3.0, Phi.shape[1])
        active = list(range(Phi.shape[1]))
        eta = rng.normal(size=n)
        log_ell, log_sv = rng.uniform(-0.5, 0.5, 2)

        def unpack(x):
            return make_state(X, eta=x[:n], log_ell=log_ell, log_sv=log_sv,
                              mu0=float(x[n]), alpha=alpha, active=active)

        x = np.append(eta, rng.normal(size=1) * 0.5)
        cov = noise_split(X, log_ell, log_sv)  # fixed by them, not by x
        err = grad_check(lambda v: collapsed_bound(unpack(v), Phi, y),
                         lambda v: _bound_value_grad(v, cov, Phi, alpha,
                                                     y)[1],
                         x)
        worst = max(worst, err)
    verdict(5, "gradient correctness", worst < 1e-4,
            f"max relative error {worst:.2e} over 50 states")


def _ep_converge(K, mu0, m_hat, passes=400, damping=0.8):
    """Parallel EP passes to a fixed point; returns q(g)'s marginals
    (mu, var)."""
    n = len(m_hat)
    prec, nu, logz = np.zeros(n), np.zeros(n), np.zeros(n)
    cov = prior_cov(K, 0.0)
    mu, var = np.full(n, mu0), np.diag(K).astype(float)
    for _ in range(passes):
        cav = cavity(mu, var, prec, nu)
        cav_mu, cav_var, ok = cav
        tilt = tilted_moments(cav_mu[ok], cav_var[ok],
                              np.asarray(m_hat, dtype=float)[ok], 64)
        new_prec, new_nu, logz = site_update(prec, nu, logz, cav, tilt,
                                             damping)
        change = max(np.max(np.abs(new_prec - prec)),
                     np.max(np.abs(new_nu - nu)))
        prec, nu = new_prec, new_nu
        mu, var, _ = ep_posterior(cov, mu0, prec, nu, logz)
        if change < 1e-12:
            break
    return mu, var


def test_criterion_6_ep_exactness_and_accuracy():
    """EP is exact on Gaussian factors (1e-10); on N in {1, 2}
    non-Gaussian cases its q(g) moments are within 1e-2 of a dense grid."""
    # part A: Gaussian sites -> closed-form posterior and normalizer
    rng = np.random.default_rng(3)
    K = np.array([[1.0, 0.5], [0.5, 2.0]])
    mu0, v = 0.3, np.array([0.7, 1.2])
    yv = rng.normal(size=2)
    prec, nu = 1.0 / v, yv / v
    logzs = (-0.5 * np.log(2 * np.pi * v)
             + 0.5 * np.log(2 * np.pi / prec) + 0.5 * nu**2 / prec
             - 0.5 * yv**2 / v)
    cov = prior_cov(K, 0.0)
    mu, var, logz = ep_posterior(cov, mu0, prec, nu, logzs)
    # the full covariance of the q(g) ep_posterior's marginals come from
    Sigma = conftest.dense_sigma(_q_cov(prec, cov))
    C = K + np.diag(v)
    resid = yv - mu0
    logz_exact = -0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(C)[1]
                         + resid @ np.linalg.solve(C, resid))
    Sigma_exact = np.linalg.inv(np.linalg.inv(K) + np.diag(prec))
    mu_exact = Sigma_exact @ (nu + np.linalg.solve(K, np.full(2, mu0)))
    err_gauss = max(abs(logz - logz_exact),
                    float(np.max(np.abs(Sigma - Sigma_exact))),
                    float(np.max(np.abs(var - np.diag(Sigma_exact)))),
                    float(np.max(np.abs(mu - mu_exact))))

    # part B1: N=1 against a dense grid
    k1, mu0_1, m1 = 1.5, -0.4, 1.7
    mu1, var_ep1 = _ep_converge(np.array([[k1]]), mu0_1, [m1])
    g = np.linspace(mu0_1 - 16 * np.sqrt(k1), mu0_1 + 16 * np.sqrt(k1),
                    400_001)
    logv = (-0.5 * (g - mu0_1) ** 2 / k1 - 0.5 * g
            - 0.5 * m1 * np.exp(np.clip(-g, -700, 700)))
    w = np.exp(logv - logv.max())
    z = trapezoid(w, g)
    mean1 = trapezoid(w * g, g) / z
    var1 = trapezoid(w * (g - mean1) ** 2, g) / z
    err1 = max(abs(mu1[0] - mean1), abs(var_ep1[0] - var1))

    # part B2: N=2 with a correlated prior against a dense 2-D grid
    K2 = np.array([[1.0, 0.6], [0.6, 1.3]])
    mu0_2 = 0.2
    m2 = np.array([0.5, 2.5])
    mu2, var_ep2 = _ep_converge(K2, mu0_2, m2)
    lo = mu0_2 - 10 * np.sqrt(K2.diagonal().max())
    hi = mu0_2 + 10 * np.sqrt(K2.diagonal().max())
    axis = np.linspace(lo, hi, 900)
    G1, G2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([G1.ravel(), G2.ravel()], axis=1)
    logv = multivariate_normal.logpdf(pts, mean=np.full(2, mu0_2), cov=K2)
    for j in range(2):
        gj = pts[:, j]
        logv = logv - 0.5 * gj - 0.5 * m2[j] * np.exp(np.clip(-gj, -700, 700))
    w = np.exp(logv - logv.max())
    z = w.sum()
    mean2 = pts.T @ w / z
    d = pts - mean2
    var2 = np.array([(w * d[:, 0] ** 2).sum(), (w * d[:, 1] ** 2).sum()]) / z
    err2 = max(float(np.max(np.abs(mu2 - mean2))),
               float(np.max(np.abs(var_ep2 - var2))))

    verdict(6, "EP exactness and accuracy",
            err_gauss < 1e-10 and err1 < 1e-2 and err2 < 1e-2,
            f"gauss {err_gauss:.1e}, N=1 {err1:.1e}, N=2 {err2:.1e}")


def test_criterion_7_sparsity(goldberg_fits):
    """Strict pruning occurs on every goldberg seed: active count < N+1."""
    counts = [len(vi.active_indices) for _, _, vi, _ in goldberg_fits]
    verdict(7, "sparsity via pruning", all(c < 101 for c in counts),
            f"active counts {counts}")


def test_criterion_8_heteroscedastic_advantage(goldberg_fits, const_fits):
    """Out-of-sample NLPD: the variational model beats the constant-noise
    baseline on >= 7/10 goldberg seeds and stays within 0.05 nats of it on
    >= 7/10 constant-noise seeds."""
    wins = 0
    for _, test, vi, rvm in goldberg_fits:
        if nlpd(predict(vi, test.X), test.y) < \
                nlpd(predict(rvm, test.X), test.y):
            wins += 1
    close = 0
    diffs = []
    for _, test, vi, rvm in const_fits:
        d = nlpd(predict(vi, test.X), test.y) \
            - nlpd(predict(rvm, test.X), test.y)
        diffs.append(d)
        if abs(d) <= 0.05:
            close += 1
    verdict(8, "heteroscedastic advantage",
            wins >= 7 and close >= 7,
            f"goldberg wins {wins}/10; const |dnlpd|<=0.05 in {close}/10 "
            f"(max {max(np.abs(diffs)):.3f})")


def test_criterion_9_determinism_and_persistence(tmp_path):
    """Fixed-seed refits byte-identical; save/load/predict exact."""
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=4))
    grid = np.linspace(-0.2, 1.2, 40)[:, None]
    ok = True
    notes = []
    for name, fit in (("vi", lambda: fit_vi(data, GOLDBERG_KERNEL,
                                            VIConfig())),
                      ("ep", lambda: fit_ep(data, GOLDBERG_KERNEL,
                                            EpConfig()))):
        m1, m2 = fit(), fit()
        p1, p2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        save_model(m1, p1)
        save_model(m2, p2)
        same_bytes = p1.read_bytes() == p2.read_bytes()
        before = predict(m1, grid)
        after = predict(load_model(p1), grid)
        same_pred = (np.array_equal(before.latent_mean, after.latent_mean)
                     and np.array_equal(before.total_var, after.total_var)
                     and np.array_equal(before.g_mean, after.g_mean)
                     and np.array_equal(before.g_var, after.g_var))
        ok = ok and same_bytes and same_pred
        notes.append(f"{name}: bytes={same_bytes} pred={same_pred}")
    verdict(9, "determinism and persistence", ok, "; ".join(notes))


def test_criterion_10_runtime():
    """Full fits at N=100 stay within the desk-scale budget."""
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=5))
    t0 = time.perf_counter()
    fit_vi(data, GOLDBERG_KERNEL)
    t_vi = time.perf_counter() - t0
    t0 = time.perf_counter()
    fit_ep(data, GOLDBERG_KERNEL)
    t_ep = time.perf_counter() - t0
    verdict(10, "desk-scale runtime", t_vi < 30.0 and t_ep < 60.0,
            f"vi {t_vi:.1f}s (<30s), ep {t_ep:.1f}s (<60s)")


# the draws on which VI's noise GP used to collapse to constant noise when
# it learned its lengthscale and signal variance (signal variance < 1e-7)
COLLAPSE_DRAWS = (("goldberg_sine", 0), ("goldberg_sine", 4),
                  ("goldberg_sine", 8), ("linear_het", 4), ("linear_het", 8))


def test_criterion_11_noise_gp_does_not_collapse():
    """VI holds the noise-GP hyperparameters where EP holds them, and on
    the draws where learning them collapsed q(g) to constant noise its
    held-out NLPD stays within 0.05 nats of EP's."""
    gaps = []
    held = True
    for generator, seed in COLLAPSE_DRAWS:
        train, _ = synth(SynthSpec(generator=generator, n=100, seed=seed))
        test, _ = synth(SynthSpec(generator=generator, n=2000,
                                  seed=seed + 10_000))
        vi = fit_vi(train, GOLDBERG_KERNEL)
        ep = fit_ep(train, GOLDBERG_KERNEL)
        held = (held and vi.noise_prior.lengthscale
                == ep.noise_prior.lengthscale
                and vi.noise_prior.signal_variance == 1.0)
        gaps.append(nlpd(predict(vi, test.X), test.y)
                    - nlpd(predict(ep, test.X), test.y))
    verdict(11, "noise GP does not collapse",
            held and max(gaps) <= 0.05,
            f"hyperparameters held={held}; VI - EP NLPD "
            f"{', '.join(f'{g:+.3f}' for g in gaps)} (<= 0.05)")


def test_criterion_12_fits_beyond_n100():
    """Every trainer converges on goldberg_sine at N = 200 and 400 (seeds
    0-2) and at N = 800 (seed 0), and on every such draw VI and EP beat
    the RVM's held-out NLPD."""
    notes = []
    ok = True
    for n, seeds in ((200, range(3)), (400, range(3)), (800, range(1))):
        for seed in seeds:
            train, _ = synth(SynthSpec(generator="goldberg_sine", n=n,
                                       seed=seed))
            test, _ = synth(SynthSpec(generator="goldberg_sine", n=2000,
                                      seed=seed + 10_000))
            try:
                models = [fit(train, GOLDBERG_KERNEL)
                          for fit in (fit_rvm, fit_vi, fit_ep)]
            except (ValueError, ArithmeticError) as exc:
                ok = False
                notes.append(f"N={n}/{seed}: {type(exc).__name__}")
                continue
            rvm, vi, ep = (nlpd(predict(m, test.X), test.y) for m in models)
            ok = (ok and all(m.status == "converged" for m in models)
                  and vi < rvm and ep < rvm)
            notes.append(f"N={n}/{seed}: "
                         + "/".join(m.status[:4] for m in models)
                         + f" rvm {rvm:.3f} vi {vi:.3f} ep {ep:.3f}")
    verdict(12, "fits beyond N=100", ok, "; ".join(notes))
