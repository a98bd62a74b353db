"""SHA-256 of every model the benchmark workloads fit and of its predictions.

    python3 tools/model_digests.py [--root CHECKOUT] [--seeds 0 1]

Imports ``hetrvm`` and ``perfbench/workloads.py`` from the checkout at
``--root`` (default: this one) and fits what ``train_n100`` and
``predict_serve`` fit under each seed, plus the ``hetrvm train`` models of
``cli_workflow``, which no seed moves.  Each fit prints two lines.  The
first is ``workload seed method dataset digest``, the digest taken over
the sorted-key JSON of ``model_to_dict`` (the saved file for the CLI).
The second, ``workload seed method dataset -config digest``, is taken
over the same document without its ``config`` entry (for the CLI, the
saved file loaded and dumped again), so a change that only adds or drops
config keys still shows its fitted numbers unchanged.  Then come five
lines ``workload seed method dataset pred:FIELD digest``, one per
``PredictiveDist`` field, each over the little-endian float64 bytes of
``predict`` at the workload's held-out inputs: ``train_n100``'s held-out
draw of the dataset (of ``goldberg_sine`` for the warm-up fits),
``predict_serve``'s batch, and for the CLI the saved model, loaded again,
at ``cli_workflow``'s test CSV of the first ``--seeds`` seed.  A change
that claims bit-identical models is checked by diffing the output of two
checkouts; the ``pred:`` lines show which prediction fields it moves.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def _digest(text):
    return hashlib.sha256(text).hexdigest()


def _show(workload, seed, method, name, text, pred):
    """The lines of one fit, from its saved JSON text and its predictions."""
    print(workload, seed, method, name, _digest(text.encode()))
    doc = json.loads(text)
    del doc["config"]
    print(workload, seed, method, name, "-config",
          _digest(json.dumps(doc, sort_keys=True).encode()))
    for field in dataclasses.fields(pred):
        values = getattr(pred, field.name).astype("<f8")
        print(workload, seed, method, name, "pred:" + field.name,
              _digest(values.tobytes()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as w
    from hetrvm.cli import run as cli_run
    from hetrvm.data import load_csv
    from hetrvm.kernels import KernelSpec
    from hetrvm.predict import predict
    from hetrvm.serialize import load_model, model_to_dict

    def show(workload, seed, method, name, model, X):
        _show(workload, seed, method, name,
              json.dumps(model_to_dict(model), sort_keys=True),
              predict(model, X))

    sizes = w.Sizes()
    for seed in args.seeds:
        units = w._units(seed)
        heldout = {}
        for g, ls in w.GENERATORS:
            data = w._draw(g, sizes.n_train, w.TrainN100.DRAW, units)
            heldout[g] = w._draw(g, sizes.n_heldout, 100_000 + seed, units).X
            for method in w.METHODS:
                show("train_n100", seed, method, g,
                     w._fit(method, data, KernelSpec(lengthscale=ls)),
                     heldout[g])
        warm = w._draw("goldberg_sine", 10, 0, units)
        data = w._draw("goldberg_sine", sizes.n_train, w.PredictServe.DRAW,
                       units)
        batch = w._draw("goldberg_sine", sizes.n_batch, 200_000 + seed,
                        units).X
        for method in w.METHODS:
            kernel = KernelSpec(lengthscale=0.3)
            show("warm-up", seed, method, "goldberg_sine",
                 w._fit(method, warm, kernel), heldout["goldberg_sine"])
            show("predict_serve", seed, method, "goldberg_sine",
                 w._fit(method, data, kernel), batch)

    with tempfile.TemporaryDirectory() as tmp:
        train = str(Path(tmp) / "train.csv")
        test = str(Path(tmp) / "test.csv")
        for n, seed, out in ((sizes.n_train, w.CliWorkflow.DRAW, train),
                             (sizes.n_test_rows, 300_000 + args.seeds[0],
                              test)):
            cli_run(["synth", "--generator", "goldberg_sine", "--n", str(n),
                     "--seed", str(seed), "--out", out])
        X = load_csv(test).X
        for method in w.METHODS:
            out = Path(tmp) / f"{method}.json"
            cli_run(["train", "--method", method, "--data", train, "--out",
                     str(out), "--lengthscale", "0.3"])
            _show("cli_workflow", "-", method, "goldberg_sine",
                  out.read_text(), predict(load_model(out), X))


if __name__ == "__main__":
    main()
