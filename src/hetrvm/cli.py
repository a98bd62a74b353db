"""Command-line interface: train / predict / evaluate / synth / benchmark.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 numeric failure.  The
parser only reads numbers; the library's own specs and configs
(``KernelSpec``, ``RvmConfig``, ``VIConfig``, ``EpConfig``, ``SynthSpec``)
give every option's default and decide which values are valid.  They are
built from the options before any file is read or written, so a setting
they reject is a usage error with the library's message.  Every artifact
embeds the resolved configuration for provenance, and identical (config,
seed, inputs) produce identical outputs.

The parser is built once per process and reused by every ``run``, which
serves in-process callers (tests, benchmarks, notebooks) that run many
commands.  Commands look up the library functions they call in this
module when they run, so rebinding one here (as a tracer does) takes
effect on the next command.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .data import _GENERATORS, DataError, SynthSpec, load_csv, synth
from .ep import EpConfig, fit_ep
from .kernels import _FAMILIES, KernelSpec
from .numerics import _check_int
from .predict import nlpd, predict, rmse
# kept for perfbench's tracer until ROADMAP item 1
from .predict import rvm_predictive_dist  # noqa: F401
from .rvm import RvmConfig, fit_rvm
from .serialize import SchemaError, load_model, save_model
from .vi import VIConfig, fit_vi

__all__ = ["main", "run"]


def _settings(args) -> dict:
    """The library objects the options describe.  Their constructors
    raise ValueError (DataError for ``SynthSpec``) on an invalid value.
    Every fitting command builds all three configs, from the same
    ``--max-iter`` and ``--tol``.  With ``--no-header``, ``--target`` is a
    0-based column index."""
    s = {}
    if args.command in ("train", "predict", "evaluate"):
        s["target"] = args.target
        if args.no_header and args.target is not None:
            try:
                s["target"] = int(args.target)
            except ValueError:
                raise ValueError(f"--target {args.target!r} is not a column "
                                 "index, as --no-header needs") from None
    if args.command in ("synth", "benchmark"):
        s["synth"] = SynthSpec(generator=args.generator, n=args.n,
                               seed=getattr(args, "seed", 0),
                               sigma=args.sigma)
    if args.command in ("train", "benchmark"):
        s["kernel"] = KernelSpec(family=args.kernel,
                                 lengthscale=args.lengthscale,
                                 degree=args.degree,
                                 include_bias=not args.no_bias)
        s["rvm"] = RvmConfig(max_iter=args.max_iter, tol=args.tol)
        s["vi"] = VIConfig(max_iter=args.max_iter, tol=args.tol)
        s["ep"] = EpConfig(max_passes=args.max_iter, tol=args.tol)
    if args.command == "benchmark":
        _check_int(args.seeds, "seeds", 1)
        s["methods"] = [m.strip() for m in args.methods.split(",")
                        if m.strip()]
        if not s["methods"] or not set(s["methods"]) <= {"rvm", "vi", "ep"}:
            raise ValueError(f"methods {args.methods!r} is not a "
                             "comma-separated list of rvm, vi, ep")
    return s


def _fit(method, data, s):
    # the names are looked up at call time: perfbench's tracer rebinds them
    fit = {"rvm": fit_rvm, "vi": fit_vi, "ep": fit_ep}[method]
    return fit(data, s["kernel"], s[method])


def _resolved(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _data(args, s):
    # the module's load_csv, looked up at call time: perfbench traces it
    return load_csv(args.data, has_header=not args.no_header,
                    target_column=s["target"])


def _report(args, lines) -> int:
    """Write the report (a header, then ``lines``) to ``--report``, or to
    stdout without it."""
    head = ["format_version=1",
            "config=" + json.dumps(_resolved(args), sort_keys=True)]
    text = "\n".join(head + lines) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args, s):
    data, sd = synth(s["synth"])
    with open(args.out, "w", encoding="utf-8") as fh:
        cols = [f"x{i}" for i in range(data.q)]
        fh.write(",".join(cols + ["y"]) + "\n")
        for row, yi in zip(data.X, data.y):
            fh.write(",".join(repr(float(v)) for v in row)
                     + f",{float(yi)!r}\n")
    if args.noise_out:
        with open(args.noise_out, "w", encoding="utf-8") as fh:
            fh.write("noise_sd\n")
            for v in sd:
                fh.write(f"{float(v)!r}\n")
    return 0


def _cmd_train(args, s):
    data = _data(args, s)
    model = _fit(args.method, data, s)
    save_model(model, args.out)
    if args.verbose:
        print(f"trained method={args.method} status={model.status} "
              f"active={len(model.active_indices)} iters={model.n_iter}")
    return 0


def _cmd_predict(args, s):
    model = load_model(args.model)
    data = _data(args, s)
    pred = predict(model, data.X)
    header = ["x" + str(i) for i in range(data.q)]
    header += ["y_true", "pred_mean", "pred_sd_total", "pred_sd_latent",
               "noise_sd"]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(_resolved(args), sort_keys=True) + "\n")
        fh.write("\t".join(header) + "\n")
        columns = [*data.X.T, data.y, pred.latent_mean,
                   np.sqrt(pred.total_var), np.sqrt(pred.latent_var),
                   np.sqrt(pred.total_var - pred.latent_var)]
        for row in zip(*(c.tolist() for c in columns)):
            fh.write("\t".join(map(repr, row)) + "\n")
    return 0


def _cmd_evaluate(args, s):
    model = load_model(args.model)
    data = _data(args, s)
    pred = predict(model, data.X)
    return _report(args, [
        f"rmse={rmse(pred.latent_mean, data.y)!r}",
        f"nlpd={nlpd(pred, data.y)!r}",
        f"active_basis={len(model.active_indices)}",
        f"status={model.status}",
    ])


def _cmd_benchmark(args, s):
    rows = ["method\tseed\trmse\tnlpd\tactive_basis"]
    for seed in range(args.seeds):
        train, _ = synth(dataclasses.replace(s["synth"], seed=seed))
        test, _ = synth(dataclasses.replace(s["synth"], seed=seed + 10_000))
        for method in s["methods"]:
            model = _fit(method, train, s)
            pred = predict(model, test.X)
            rows.append(f"{method}\t{seed}\t"
                        f"{rmse(pred.latent_mean, test.y)!r}\t"
                        f"{nlpd(pred, test.y)!r}\t{len(model.active_indices)}")
    return _report(args, rows)


def _add_common_model_opts(p):
    # the library's defaults: the three configs share one iteration limit
    # and one tolerance
    p.add_argument("--kernel", default=KernelSpec.family, choices=_FAMILIES)
    p.add_argument("--lengthscale", type=float,
                   default=KernelSpec.lengthscale)
    p.add_argument("--degree", type=int, default=KernelSpec.degree)
    p.add_argument("--no-bias", action="store_true")
    p.add_argument("--max-iter", type=int, default=VIConfig.max_iter)
    p.add_argument("--tol", type=float, default=VIConfig.tol)


def _add_synth_opts(p):
    p.add_argument("--generator", default=SynthSpec.generator,
                   choices=_GENERATORS)
    p.add_argument("--n", type=int, default=SynthSpec.n)
    p.add_argument("--sigma", type=float, default=SynthSpec.sigma)


def _add_data_opts(p):
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--no-header", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it as it was, and each command's ``func`` is a module function."""
    parser = argparse.ArgumentParser(
        prog="hetrvm",
        description="Sparse kernel regression with input-dependent noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    _add_synth_opts(p)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-out", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model and write it to JSON")
    p.add_argument("--method", required=True, choices=["rvm", "vi", "ep"])
    _add_data_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    _add_common_model_opts(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="emit a prediction TSV")
    p.add_argument("--model", required=True)
    _add_data_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="report RMSE / NLPD / basis count")
    p.add_argument("--model", required=True)
    _add_data_opts(p)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("benchmark",
                       help="compare methods over seeds on synthetic data")
    _add_synth_opts(p)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--methods", default="rvm,vi,ep")
    p.add_argument("--report", default=None)
    _add_common_model_opts(p)
    p.set_defaults(func=_cmd_benchmark)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        settings = _settings(args)
    except ValueError as exc:  # DataError included
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, settings)
    except (DataError, SchemaError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    # FactorizationError is a ValueError.  Under ``-W error``, numpy's
    # overflow warning is raised before the typed error it precedes
    except (FloatingPointError, ValueError, RuntimeWarning) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
