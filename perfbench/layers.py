"""Which library calls are traced, and the per-layer metrics derived from
the spans.  The layers are the modules of ``src/hetrvm``."""

from __future__ import annotations

from importlib import import_module

import numpy as np

from tracing import INFO, summarize


def _size(args, out):
    return int(np.shape(args[0])[0])


def _nfev(args, out):
    return int(out.nfev)


def _fit(args, out):
    return (int(out.n_iter), str(out.status), len(out.active_indices))


def _cli_name(args):
    return "cli." + args[0][0]


def bindings(caller):
    """(module, attr, span name, owner, info) for every traced call.

    ``caller`` is the benchmark module whose own calls into the library
    are traced as trainers and queries.  A name a module no longer binds
    makes the traced run fail, rather than its metrics silently read 0.
    """
    # import_module, because the package attribute ``hetrvm.predict`` is
    # the function, not the module
    ep, vi, rvm, pred, num, cli = (import_module("hetrvm." + m) for m in (
        "ep", "vi", "rvm", "predict", "numerics", "cli"))
    out = []
    for mod in (caller, cli):
        out += [(mod, "fit_rvm", "fit_rvm", "rvm", _fit),
                (mod, "fit_vi", "fit_vi", "vi", _fit),
                (mod, "fit_ep", "fit_ep", "ep", _fit),
                (mod, "predict", "predict", "predict", None),
                (mod, "rvm_predictive_dist", "rvm_predictive_dist",
                 "predict", None),
                (mod, "nlpd", "nlpd", "predict", None),
                (mod, "save_model", "save_model", "serialize", None),
                (mod, "load_model", "load_model", "serialize", None)]
    out += [(caller, "cli_run", _cli_name, "cli", None),
            (cli, "load_csv", "load_csv", "data", None)]
    for mod in (num, rvm, vi, ep, pred):
        out.append((mod, "chol_factor", "chol_factor", None, _size))
    for mod in (rvm, vi, ep):
        out.append((mod, "build_design_matrix", "build_design_matrix",
                    None, None))
    for mod, attr in ((rvm, "design_matrix_at"), (pred, "design_matrix_at"),
                      (pred, "gp_covariance"), (pred, "cross_covariance"),
                      (pred, "gauss_hermite"), (ep, "gauss_hermite"),
                      (ep, "cavity"), (ep, "tilted_moments"),
                      (ep, "site_update"), (ep, "ep_posterior"),
                      (ep, "update_alpha"), (ep, "weight_posterior"),
                      (vi, "update_alpha"), (vi, "weight_posterior"),
                      (vi, "collapsed_bound")):
        out.append((mod, attr, attr, None, None))
    out.append((vi, "minimize", "lbfgs", None, _nfev))
    return out


# Metrics a workload measures itself (untraced), reported with the layers.
MEASURED = [
    ("predict.1pt_ms.rvm", "ms"),
    ("predict.1pt_ms.vi", "ms"),
    ("predict.1pt_ms.ep", "ms"),
    ("predict.1pt_p99_ms", "ms"),
    ("predict.batch_points_per_s", "1/s"),
    ("predict.nlpd_points_per_s", "1/s"),
    ("serialize.model_bytes", "bytes"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
]

# Exact counts: they must repeat between two traced runs of one seed.
COUNTS = [
    "ep.gauss_hermite.calls", "ep.cavity.calls", "ep.passes",
    "ep.status.converged", "ep.status.oscillating", "ep.status.max_passes",
    "vi.lbfgs.calls", "vi.bound_evals", "vi.outer_iters",
    "vi.weight_posterior.calls", "vi.active_final",
    "rvm.iters", "rvm.active_final",
    "rvm.chol_factor.calls", "vi.chol_factor.calls", "ep.chol_factor.calls",
    "numerics.chol_factor.calls", "numerics.chol_factor.gflop_computed",
    "rvm.chol_factor.gflop_computed", "vi.chol_factor.gflop_computed",
    "ep.chol_factor.gflop_computed", "numerics.gauss_hermite.calls",
    "predict.chol_factor.calls_per_query", "trace.spans",
]


def layer_metrics(spans, measured):
    """Every per-layer metric as ``{name: (value, unit)}``; a layer the
    workload did not exercise reads 0."""
    table = summarize(spans)
    empty = [0, 0.0, 0.0, []]

    def row(owner, name):
        return table.get((owner, name), empty)

    def total(name, col):
        return sum(r[col] for (o, n), r in table.items() if n == name)

    def fits(owner, name):
        return [s[INFO] for s in row(owner, name)[3] if s[INFO] is not None]

    def gflop(owner=None):
        rows = ([row(owner, "chol_factor")] if owner else
                [r for (o, n), r in table.items() if n == "chol_factor"])
        return sum((s[INFO] or 0) ** 3 / 3.0 for r in rows for s in r[3]) / 1e9

    ep_fits, vi_fits, rvm_fits = (fits("ep", "fit_ep"), fits("vi", "fit_vi"),
                                  fits("rvm", "fit_rvm"))
    lbfgs = row("vi", "lbfgs")
    bound_evals = sum(s[INFO] for s in lbfgs[3] if s[INFO] is not None)
    queries = row("predict", "predict")[0]
    m = {
        "ep.gauss_hermite.calls": (row("ep", "gauss_hermite")[0], "count"),
        "ep.gauss_hermite.s": (row("ep", "gauss_hermite")[1], "s"),
        "ep.tilted_moments.self_s": (row("ep", "tilted_moments")[2], "s"),
        "ep.site_update.self_s": (row("ep", "site_update")[2], "s"),
        "ep.cavity.calls": (row("ep", "cavity")[0], "count"),
        "ep.ep_posterior.s": (row("ep", "ep_posterior")[1], "s"),
        "ep.update_alpha.s": (row("ep", "update_alpha")[1], "s"),
        "ep.passes": (sum(f[0] for f in ep_fits), "count"),
        "ep.status.converged": (sum(f[1] == "converged" for f in ep_fits),
                                "count"),
        "ep.status.oscillating": (sum(f[1] == "oscillating" for f in ep_fits),
                                  "count"),
        "ep.status.max_passes": (sum(f[1] == "max_passes" for f in ep_fits),
                                 "count"),
        "vi.lbfgs.calls": (lbfgs[0], "count"),
        "vi.lbfgs.s": (lbfgs[1], "s"),
        "vi.bound_evals": (bound_evals, "count"),
        "vi.bound_eval_ms": (1e3 * lbfgs[1] / bound_evals if bound_evals
                             else 0.0, "ms"),
        "vi.update_alpha.s": (row("vi", "update_alpha")[1], "s"),
        "vi.weight_posterior.calls": (row("vi", "weight_posterior")[0],
                                      "count"),
        "vi.weight_posterior.s": (row("vi", "weight_posterior")[1], "s"),
        "vi.collapsed_bound.s": (row("vi", "collapsed_bound")[1], "s"),
        "vi.outer_iters": (sum(f[0] for f in vi_fits), "count"),
        "vi.active_final": (sum(f[2] for f in vi_fits), "count"),
        "rvm.iters": (sum(f[0] for f in rvm_fits), "count"),
        "rvm.active_final": (sum(f[2] for f in rvm_fits), "count"),
    }
    for owner in ("rvm", "vi", "ep"):
        r = row(owner, "chol_factor")
        m[f"{owner}.chol_factor.calls"] = (r[0], "count")
        m[f"{owner}.chol_factor.s"] = (r[1], "s")
        m[f"{owner}.chol_factor.gflop_computed"] = (gflop(owner), "GFLOP")
    m.update({
        "numerics.chol_factor.calls": (total("chol_factor", 0), "count"),
        "numerics.chol_factor.s": (total("chol_factor", 1), "s"),
        "numerics.chol_factor.gflop_computed": (gflop(), "GFLOP"),
        "numerics.gauss_hermite.calls": (total("gauss_hermite", 0), "count"),
        "kernels.build_design_matrix.s": (total("build_design_matrix", 1),
                                          "s"),
        "kernels.design_matrix_at.s": (total("design_matrix_at", 1), "s"),
        "kernels.gp_covariance.s": (total("gp_covariance", 1), "s"),
        "kernels.cross_covariance.s": (total("cross_covariance", 1), "s"),
        "predict.predict.self_s": (row("predict", "predict")[2], "s"),
        "predict.chol_factor.calls_per_query": (
            row("predict", "chol_factor")[0] / queries if queries else 0.0,
            "count"),
        "predict.rvm_predictive_dist.s": (
            row("predict", "rvm_predictive_dist")[1], "s"),
        "predict.nlpd.self_s": (row("predict", "nlpd")[2], "s"),
        "serialize.save_model.s": (row("serialize", "save_model")[1], "s"),
        "serialize.load_model.s": (row("serialize", "load_model")[1], "s"),
        "data.load_csv.s": (row("data", "load_csv")[1], "s"),
    })
    for cmd in ("synth", "train", "predict", "evaluate"):
        m[f"cli.{cmd}.s"] = (row("cli", f"cli.{cmd}")[1], "s")
    m["trace.spans"] = (len(spans), "count")
    for name, unit in MEASURED:
        m[name] = (measured.get(name, 0.0), unit)
    return m
