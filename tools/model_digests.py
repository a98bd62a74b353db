"""SHA-256 of every model the benchmark workloads fit, one line per fit.

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
config keys still shows its fitted numbers unchanged.  A change that
claims bit-identical models is checked by diffing the output of two
checkouts.
"""

import argparse
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


def _show(workload, seed, method, name, text):
    """The two lines of one fit, from its saved JSON text."""
    print(workload, seed, method, name, _digest(text.encode()))
    doc = json.loads(text)
    del doc["config"]
    print(workload, seed, method, name, "-config",
          _digest(json.dumps(doc, sort_keys=True).encode()))


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
    from hetrvm.kernels import KernelSpec
    from hetrvm.serialize import model_to_dict

    def show(workload, seed, method, name, model):
        _show(workload, seed, method, name,
              json.dumps(model_to_dict(model), sort_keys=True))

    sizes = w.Sizes()
    for seed in args.seeds:
        units = w._units(seed)
        for g, ls in w.GENERATORS:
            data = w._draw(g, sizes.n_train, w.TrainN100.DRAW, units)
            for method in w.METHODS:
                show("train_n100", seed, method, g,
                     w._fit(method, data, KernelSpec(lengthscale=ls)))
        warm = w._draw("goldberg_sine", 10, 0, units)
        data = w._draw("goldberg_sine", sizes.n_train, w.PredictServe.DRAW,
                       units)
        for method in w.METHODS:
            kernel = KernelSpec(lengthscale=0.3)
            show("warm-up", seed, method, "goldberg_sine",
                 w._fit(method, warm, kernel))
            show("predict_serve", seed, method, "goldberg_sine",
                 w._fit(method, data, kernel))

    with tempfile.TemporaryDirectory() as tmp:
        train = str(Path(tmp) / "train.csv")
        cli_run(["synth", "--generator", "goldberg_sine", "--n",
                 str(sizes.n_train), "--seed", str(w.CliWorkflow.DRAW),
                 "--out", train])
        for method in w.METHODS:
            out = Path(tmp) / f"{method}.json"
            cli_run(["train", "--method", method, "--data", train, "--out",
                     str(out), "--lengthscale", "0.3"])
            _show("cli_workflow", "-", method, "goldberg_sine",
                  out.read_text())


if __name__ == "__main__":
    main()
