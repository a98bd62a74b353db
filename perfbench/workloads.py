"""The three workloads: train_n100, predict_serve and cli_workflow.

Each workload builds its inputs from the workload seed in ``setup``,
measures untraced in ``measure``, and runs one fixed unit of its work in
``probe`` for the traced run.  Library functions are called through this
module's globals, so a :class:`tracing.Tracer` can rebind them here.

Training sets are fixed reference draws of the generators.  At N=100 the
fit cost of one draw differs from another's by up to 10x (one EP fit took
0.7 s to 7.8 s over draws 0-9, on a 2-core x86 machine with one BLAS
thread), more than a run of tens of seconds averages out.  The seed
therefore moves the reference draws to random units (an affine map of x
and a shift of y, which standardization undoes, so the fit path is the
same) and draws every held-out, query and test point.

Every time sample is scaled by the reference call of :mod:`gauge`,
measured right before and after it, and a timing is the median of its
scaled samples.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gauge import Gauge
from hetrvm.cli import run as cli_run
from hetrvm.data import Dataset, SynthSpec, load_csv, synth
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import KernelSpec
from hetrvm.model import HrvmModel
from hetrvm.predict import nlpd, predict, rvm_predictive_dist
from hetrvm.rvm import RvmConfig, fit_rvm
from hetrvm.serialize import load_model, model_to_dict, save_model
from hetrvm.vi import fit_vi

clock = time.perf_counter
METHODS = ("rvm", "vi", "ep")
GENERATORS = (("goldberg_sine", 0.3), ("linear_het", 0.3),
              ("const_noise", 1.0))
FIELDS = ("latent_mean", "latent_var", "g_mean", "g_var", "total_var")
# single-point queries between two reference measurements, about 50 ms
QUERY_BLOCK = 150


@dataclass(frozen=True)
class Sizes:
    n_train: int = 100
    n_heldout: int = 5000       # train_n100 held-out points per dataset
    n_test_rows: int = 1000     # cli_workflow test CSV rows
    n_batch: int = 10_000       # predict_serve batch
    queries_per_round: int = 1500


def _fit(method, data, kernel):
    if method == "rvm":
        return fit_rvm(data, kernel)
    if method == "vi":
        return fit_vi(data, kernel)
    return fit_ep(data, kernel)


# the fits `hetrvm train` makes with its default options, which differ from
# the library's in the iteration limits
CLI_FIT = {"rvm": lambda d, k: fit_rvm(d, k, RvmConfig(max_iter=200)),
           "vi": lambda d, k: fit_vi(d, k),
           "ep": lambda d, k: fit_ep(d, k, EpConfig(max_passes=200))}


def _predictive(model, X):
    if isinstance(model, HrvmModel):
        return predict(model, X)
    return rvm_predictive_dist(model, X)


def _units(seed):
    """A seeded change of units: x -> a x + b, y -> y + c."""
    rng = np.random.default_rng([seed, 0xA1])
    a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    b, c = rng.uniform(-10.0, 10.0, 2)
    return lambda d: Dataset(d.X * a + b, d.y + c)


def _draw(generator, n, seed, units):
    data, _ = synth(SynthSpec(generator=generator, n=n, seed=seed))
    return units(data)


def _fingerprint(model):
    return json.dumps(model_to_dict(model), sort_keys=True)


def _loop(seconds, step):
    """Run ``step`` at least twice, and again while the next one would end
    at most half a step past the deadline."""
    start = clock()
    for count in itertools.count(1):
        t = clock()
        step()
        last = clock() - t
        if count >= 2 and clock() - start + 0.5 * last > seconds:
            return


class Workload:
    """Seed, sizes and the operation counts and failed checks of a run."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.gauge = Gauge()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, fn, *args):
        """One counted operation; a raise is a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted and reported, never swallowed
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)} raised "
                                 f"{type(exc).__name__}: {exc}")
            return None

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def check_scores(self, label, pred, score):
        finite = all(np.all(np.isfinite(getattr(pred, f))) for f in FIELDS)
        self.check(finite, f"{label}: non-finite prediction")
        self.check(math.isfinite(score), f"{label}: non-finite NLPD")


class TrainN100(Workload):
    """Fit every trainer on each generator's N=100 reference draw."""

    # draw 1: EP oscillates on goldberg_sine, hits max_passes on
    # linear_het and converges on const_noise
    DRAW = 1

    def setup(self):
        units = _units(self.seed)
        n, m = self.sizes.n_train, self.sizes.n_heldout
        self.sets = [(g, KernelSpec(lengthscale=ls),
                      _draw(g, n, self.DRAW, units),
                      _draw(g, m, 100_000 + self.seed, units))
                     for g, ls in GENERATORS]
        warm = _draw("goldberg_sine", 10, 0, units)
        for method in METHODS:
            _fit(method, warm, KernelSpec(lengthscale=0.3))

    def _pass(self):
        """Fit every trainer on every dataset and score each model on its
        held-out set right after its fit, so the scoring samples spread
        over the run.  Returns the models and, per model, the fit seconds,
        the NLPD and the scoring seconds."""
        models, fit_s, scores, score_s = {}, {}, {}, {}
        for g, kernel, train, test in self.sets:
            for method in METHODS:
                t = clock()
                model = models[method, g] = self.call(_fit, method, train,
                                                      kernel)
                fit_s[method, g] = (clock() - t) * self.gauge.scale()
                if model is None:
                    continue
                t = clock()
                pred = self.call(_predictive, model, test.X)
                score = (None if pred is None
                         else self.call(nlpd, pred, test.y))
                score_s[method, g] = (clock() - t) * self.gauge.scale()
                if score is not None:
                    self.check_scores(f"{method}/{g}", pred, score)
                    scores[method, g] = score
        return models, fit_s, scores, score_s

    def measure(self, seconds):
        fits, scoring, prints = {}, {}, []

        def one_pass():
            models, fit_s, self.scores, score_s = self._pass()
            prints.append(self.fingerprint(models))
            for key, value in fit_s.items():
                fits.setdefault(key, []).append(value)
            for key, value in score_s.items():
                scoring.setdefault(key, []).append(value)

        _loop(seconds, one_pass)
        self.check(all(p == prints[0] for p in prints),
                   "refits of the same data differ")
        points = len(scoring) * self.sizes.n_heldout
        out = {"points_per_s": (points / sum(statistics.median(v) for v in
                                             scoring.values()), "1/s")}
        for method in METHODS:
            vals = [s for (m, _), s in self.scores.items() if m == method]
            out[f"{method}_op_ms"] = (1e3 * sum(
                statistics.median(v) for (m, _), v in fits.items()
                if m == method), "ms")
            out[f"{method}_nlpd"] = (statistics.fmean(vals) if vals
                                     else math.nan, "nats")
        named = {f"fit_{m}_s": (out[f"{m}_op_ms"][0] / 1e3, "s", len(prints))
                 for m in METHODS}
        named.update({f"heldout_nlpd_{m}": (out[f"{m}_nlpd"][0], "nats",
                                            len(self.sets)) for m in METHODS})
        return out, named

    def probe(self):
        return self._pass()[0], {}

    def fingerprint(self, models):
        return {k: _fingerprint(v) for k, v in models.items()
                if v is not None}


class PredictServe(Workload):
    """Serve single-point and batch queries from three loaded models."""

    DRAW = 0

    def setup(self):
        units = _units(self.seed)
        s = self.sizes
        train = _draw("goldberg_sine", s.n_train, self.DRAW, units)
        self.batch = _draw("goldberg_sine", s.n_batch, 200_000 + self.seed,
                           units)
        kernel = KernelSpec(lengthscale=0.3)
        self.models, self.reference = {}, {}
        self.model_bytes = 0
        for method in METHODS:
            fitted = self.call(_fit, method, train, kernel)
            if fitted is None:
                continue
            path = self.workdir / f"{method}.json"
            save_model(fitted, path)
            self.model_bytes += path.stat().st_size
            loaded = load_model(path)
            before = _predictive(fitted, self.batch.X)
            after = _predictive(loaded, self.batch.X)
            self.check(all(np.array_equal(getattr(before, f),
                                          getattr(after, f))
                           for f in FIELDS),
                       f"{method}: save/load changed predictions")
            self.models[method] = loaded
            self.reference[method] = after
        self.cursor = 0
        self.scores = {}
        for method, model in self.models.items():
            for row in range(5):
                _predictive(model, self.batch.X[row:row + 1])

    def _samples(self):
        return {k: {m: [] for m in self.models}
                for k in ("1pt", "batch", "nlpd")}

    def _round(self, samples):
        """Single-point queries round-robin over the models (one caller,
        closed loop), then each model predicts and scores the batch."""
        X, y = self.batch.X, self.batch.y
        names = list(self.models)
        latency = []
        for i in range(self.sizes.queries_per_round):
            method = names[i % len(names)]
            row = self.cursor % len(X)
            self.cursor += 1
            t = clock()
            pred = self.call(_predictive, self.models[method], X[row:row + 1])
            latency.append((method, clock() - t))
            if pred is not None:
                ref = self.reference[method]
                self.check(all(np.allclose(getattr(pred, f),
                                           getattr(ref, f)[row], rtol=1e-12,
                                           atol=1e-12) for f in FIELDS),
                           f"{method}: single point {row} differs from batch")
            if (len(latency) == QUERY_BLOCK
                    or i + 1 == self.sizes.queries_per_round):
                scale = self.gauge.scale()
                for m, x in latency:
                    samples["1pt"][m].append(x * scale)
                latency = []
        for method in names:
            t = clock()
            pred = self.call(_predictive, self.models[method], X)
            t1 = clock()
            score = None if pred is None else self.call(nlpd, pred, y)
            t2 = clock()
            scale = self.gauge.scale()
            samples["batch"][method].append((t1 - t) * scale)
            samples["nlpd"][method].append((t2 - t1) * scale)
            if score is not None:
                self.check_scores(method, pred, score)
                ref = self.reference[method]
                self.check(all(np.array_equal(getattr(pred, f),
                                              getattr(ref, f))
                               for f in FIELDS),
                           f"{method}: batch prediction not repeatable")
                self.scores[method] = score

    def _summary(self, samples):
        """Figures of the read path, and every single-point latency."""
        n = len(self.batch.X) * len(self.models)
        pooled = sorted(x for v in samples["1pt"].values() for x in v)
        measured = {f"predict.1pt_ms.{m}": 1e3 * statistics.median(v)
                    for m, v in samples["1pt"].items()}
        measured.update({
            "predict.1pt_p99_ms": 1e3 * pooled[int(0.99 * (len(pooled) - 1))],
            "predict.batch_points_per_s": n / sum(
                map(statistics.median, samples["batch"].values())),
            "predict.nlpd_points_per_s": n / sum(
                map(statistics.median, samples["nlpd"].values())),
            "serialize.model_bytes": self.model_bytes,
        })
        return measured, pooled

    def measure(self, seconds):
        samples = self._samples()
        _loop(seconds, lambda: self._round(samples))
        measured, pooled = self._summary(samples)
        batch_pps = measured["predict.batch_points_per_s"]
        nlpd_pps = measured["predict.nlpd_points_per_s"]
        out = {"points_per_s": (1.0 / (1.0 / batch_pps + 1.0 / nlpd_pps),
                                "1/s")}
        for method in METHODS:
            out[f"{method}_op_ms"] = (measured.get(f"predict.1pt_ms.{method}",
                                                   math.nan), "ms")
            out[f"{method}_nlpd"] = (self.scores.get(method, math.nan), "nats")
        rounds = len(next(iter(samples["batch"].values())))
        named = {
            "predict_1pt_ms": (1e3 * statistics.median(pooled), "ms",
                               len(pooled)),
            "predict_1pt_p99_ms": (measured["predict.1pt_p99_ms"], "ms",
                                   len(pooled)),
            "predict_points_per_s": (batch_pps, "points/s", rounds),
            "nlpd_points_per_s": (nlpd_pps, "points/s", rounds),
        }
        return out, named

    def probe(self):
        samples = self._samples()
        self._round(samples)
        return dict(self.scores), self._summary(samples)[0]

    def fingerprint(self, scores):
        return {m: repr(v) for m, v in scores.items()}


class CliWorkflow(Workload):
    """The README flow through ``hetrvm.cli.run``, in process."""

    DRAW = 0  # the README's `hetrvm synth --seed 0`

    def setup(self):
        d = self.workdir / "cli"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        self.dir = d
        self.train_csv = str(d / "train.csv")
        self.test_csv = str(d / "test.csv")
        self._flow(("rvm",))

    def _cli(self, argv):
        self.attempted += 1
        code = cli_run(argv)
        if code != 0:
            self.failed += 1
            self.problems.append(f"hetrvm {argv[0]} exited {code}")

    def _paths(self, method):
        d = self.dir
        return (str(d / f"{method}.json"), str(d / f"{method}.tsv"),
                str(d / f"{method}.txt"))

    def _flow(self, methods=METHODS):
        """synth, then train -> predict -> evaluate per method; seconds of
        synth, and of train and of predict + evaluate per method."""
        s = self.sizes
        t = clock()
        for n, seed, out in ((s.n_train, self.DRAW, self.train_csv),
                             (s.n_test_rows, 300_000 + self.seed,
                              self.test_csv)):
            self._cli(["synth", "--generator", "goldberg_sine", "--n", str(n),
                       "--seed", str(seed), "--out", out])
        synth_t = (clock() - t) * self.gauge.scale()
        train_t, score_t = {}, {}
        for method in methods:
            model, pred, report = self._paths(method)
            t = clock()
            self._cli(["train", "--method", method, "--data", self.train_csv,
                       "--out", model, "--lengthscale", "0.3"])
            train_t[method] = (clock() - t) * self.gauge.scale()
            t = clock()
            self._cli(["predict", "--model", model, "--data", self.test_csv,
                       "--out", pred])
            self._cli(["evaluate", "--model", model, "--data", self.test_csv,
                       "--report", report])
            score_t[method] = (clock() - t) * self.gauge.scale()
        return synth_t, train_t, score_t

    def measure(self, seconds):
        flows = []
        _loop(seconds, lambda: flows.append(self._flow()))
        nlpds = self.verify()
        out = {}
        score_s = 0.0
        for method in METHODS:
            out[f"{method}_op_ms"] = (1e3 * statistics.median(
                tr[method] + sc[method] for _, tr, sc in flows), "ms")
            out[f"{method}_nlpd"] = (nlpds.get(method, math.nan), "nats")
            score_s += statistics.median(sc[method] for _, _, sc in flows)
        points = 2 * self.sizes.n_test_rows * len(METHODS)
        out["points_per_s"] = (points / score_s, "1/s")
        total = statistics.median(sy + sum(tr.values()) + sum(sc.values())
                                  for sy, tr, sc in flows)
        named = {"cli_workflow_s": (total, "s", len(flows))}
        return out, named

    def probe(self):
        self._flow()
        return None, {"serialize.model_bytes": sum(
            Path(self._paths(m)[0]).stat().st_size for m in METHODS)}

    def verify(self):
        """Check the flow's files; returns each method's reported NLPD.

        ``train`` saves its model and ``predict`` and ``evaluate`` load it
        again.  Their TSV predictions and reported NLPD must equal, digit
        for digit, those of the same fit made in process and never saved.
        """
        train, test = load_csv(self.train_csv), load_csv(self.test_csv)
        kernel = KernelSpec(lengthscale=0.3)
        nlpds = {}
        for method in METHODS:
            _, pred_path, report_path = self._paths(method)
            try:
                rows = [ln.split("\t") for ln in
                        Path(pred_path).read_text().splitlines()[2:]]
                report = dict(ln.split("=", 1) for ln in
                              Path(report_path).read_text().splitlines())
            except (OSError, ValueError) as exc:
                self.problems.append(f"{method}: unreadable output ({exc})")
                continue
            model = self.call(CLI_FIT[method], train, kernel)
            if model is None:
                continue
            pred = _predictive(model, test.X)
            expect = [[repr(float(v)) for v in (m, np.sqrt(t), np.sqrt(lv),
                                                np.sqrt(t - lv))]
                      for m, t, lv in zip(pred.latent_mean, pred.total_var,
                                          pred.latent_var)]
            self.check([r[-4:] for r in rows] == expect,
                       f"{method}: predictions after save/load differ from "
                       f"the in-process fit")
            score = nlpd(pred, test.y)
            self.check(report.get("nlpd") == repr(score),
                       f"{method}: evaluate's NLPD differs from the "
                       f"in-process fit's")
            self.check_scores(method, pred, score)
            nlpds[method] = score
        return nlpds

    def fingerprint(self, _):
        self.verify()
        return {p: Path(p).read_bytes() for m in METHODS
                for p in self._paths(m)}


WORKLOADS = {"train_n100": TrainN100, "predict_serve": PredictServe,
             "cli_workflow": CliWorkflow}
