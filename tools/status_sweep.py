"""How each trainer ends over many fits: status counts, NLPD and time.

    python3 tools/status_sweep.py [--n 100] [--seeds 0 1 ...] [--root CHECKOUT]

Fits every method with its library defaults on each generator's draw
``synth(generator, n, seed)`` for every seed, with the kernel lengthscale
of the benchmark (0.3 for ``goldberg_sine`` and ``linear_het``, 1.0 for
``const_noise``), and scores it on 2,000 held-out points drawn with seed
``10000 + seed``.  Prints one line per method: how many fits ended in each
status, the mean held-out NLPD, the mean active-basis count, the mean
``n_iter``, each generator's draw with the highest NLPD
(``worst=<generator>/<seed>:<nlpd>,...``, which shows an outlier a mean
hides; NLPD sits on a different scale for each generator, so one worst
draw over all of them would always be a ``goldberg_sine`` one), the
largest final weight precision of any fit (``max_alpha=``, which shows
how far the fits stay from a precision at which a column carries no
weight) and the total fit seconds.  A fit that raises counts under
``error`` and is left out of the means, and the script then exits 1.
``--root`` imports ``hetrvm`` from another checkout, so two commits can
be compared on the same machine.
"""

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

GENERATORS = (("goldberg_sine", 0.3), ("linear_het", 0.3),
              ("const_noise", 1.0))
HELDOUT = 2000


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from hetrvm import KernelSpec, SynthSpec, fit_ep, fit_rvm, fit_vi, synth
    from hetrvm.predict import nlpd, predict

    fit = {"rvm": fit_rvm, "vi": fit_vi, "ep": fit_ep}
    statuses = {m: Counter() for m in fit}
    scores = {m: [] for m in fit}
    worst = {m: {g: (float("-inf"), "none") for g, _ in GENERATORS}
             for m in fit}
    active = {m: [] for m in fit}
    iters = {m: [] for m in fit}
    top_alpha = {m: [] for m in fit}  # each fit's largest precision
    seconds = dict.fromkeys(fit, 0.0)
    for generator, lengthscale in GENERATORS:
        kernel = KernelSpec(lengthscale=lengthscale)
        for seed in args.seeds:
            train, _ = synth(SynthSpec(generator=generator, n=args.n,
                                       seed=seed))
            test, _ = synth(SynthSpec(generator=generator, n=HELDOUT,
                                      seed=10_000 + seed))
            for method, fit_method in fit.items():
                start = time.perf_counter()
                try:
                    model = fit_method(train, kernel)
                except (ValueError, ArithmeticError):
                    statuses[method]["error"] += 1
                    continue
                finally:
                    seconds[method] += time.perf_counter() - start
                statuses[method][model.status] += 1
                score = nlpd(predict(model, test.X), test.y)
                scores[method].append(score)
                worst[method][generator] = max(
                    worst[method][generator], (score, f"{generator}/{seed}"))
                active[method].append(len(model.active_indices))
                iters[method].append(model.n_iter)
                if model.alpha.size:
                    top_alpha[method].append(float(model.alpha.max()))

    for method in fit:
        counts = " ".join(f"{k}={v}" for k, v in sorted(statuses[method].items()))
        done = len(scores[method])
        means = "\t".join(
            f"{name}={sum(v[method]) / done:.{digits}f}" if done
            else f"{name}=nan"
            for name, v, digits in (("nlpd", scores, 4), ("active", active, 1),
                                    ("n_iter", iters, 1)))
        worst_draws = ",".join(f"{draw}:{score:.4f}"
                               for score, draw in worst[method].values())
        alpha = max(top_alpha[method], default=float("nan"))
        print(f"{method}\t{counts}\t{means}\tworst={worst_draws}"
              f"\tmax_alpha={alpha:.3g}"
              f"\tseconds={seconds[method]:.2f}")
    return int(any(statuses[m]["error"] for m in fit))


if __name__ == "__main__":
    sys.exit(main())
