"""hetrvm benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train_n100 --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs one unit of the workload untraced, then twice traced, and reports
the per-layer metrics of the first traced unit.  The traced units must
reproduce the untraced outputs bit for bit and repeat every count
exactly.  The spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a correctness check fails and 2 when there is no hetrvm source
tree to measure.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported: on a 2-core machine a VI
# fit at N=100 takes 0.57 s with one OpenBLAS thread and 6.6 s with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3


def _import_library():
    """Import hetrvm from this checkout's ``src``."""
    if not (SRC / "hetrvm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hetrvm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetrvm
    if Path(hetrvm.__file__).resolve().parent != SRC / "hetrvm":
        raise ImportError(f"hetrvm imported from {hetrvm.__file__}")
    import workloads  # noqa: F401  (imports numpy, scipy and hetrvm)


def _import_s(gauge):
    """Median seconds, scaled, of importing numpy, scipy and hetrvm in a
    fresh interpreter, which every use of the library pays.  This
    process's own import is a single sample and compiles the sources on a
    first run, so it is not the one timed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]))
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workloads"], env=env,
                       check=True)
        times.append((time.perf_counter() - t) * gauge.scale())
    return statistics.median(times)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "hetrvm").glob("*.py")):
        digest.update(path.read_bytes())
    return {"blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "omp_threads": os.environ["OMP_NUM_THREADS"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result object, human-readable metrics).
    Every time is scaled by the reference call of ``gauge``."""
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[name](seed, sizes or workloads.Sizes(),
                                      workdir)
        setups = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            w.setup()
            setups.append((time.perf_counter() - t) * w.gauge.scale())
        setup_s = _import_s(w.gauge) + statistics.median(setups)
        named = {"setup_s": (setup_s, "s", SETUP_REPS)}
        if not trace:
            metrics, more = w.measure(seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
            named.update(more)
            named["peak_rss_mb"] = (metrics["peak_rss_mb"][0], "MB", 1)
            named["reference_call_us"] = (
                1e6 * statistics.median(w.gauge.refs), "us",
                len(w.gauge.refs))
        else:
            metrics = _traced(w, name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not w.problems, "attempted": w.attempted,
              "failed": w.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, named, w.problems


def _traced(w, name, seed):
    import layers
    import workloads
    from tracing import Tracer

    t = time.perf_counter()
    out, measured = w.probe()
    untraced = time.perf_counter() - t
    reference = w.fingerprint(out)
    runs = []
    for _ in range(2):
        tracer = Tracer(layers.bindings(workloads))
        with tracer:
            t = time.perf_counter()
            out, _ = w.probe()
            elapsed = time.perf_counter() - t
        w.check(tracer.restored(), "tracer left a wrapper installed")
        w.check(w.fingerprint(out) == reference,
                "traced outputs differ from untraced ones")
        runs.append((tracer.spans, elapsed))
    measured.update({"trace.untraced_s": untraced,
                     "trace.traced_s": runs[0][1],
                     "trace.overhead_s": runs[0][1] - untraced})
    first, second = (layers.layer_metrics(spans, measured)
                     for spans, _ in runs)
    for key in layers.COUNTS:
        w.check(first[key] == second[key],
                f"{key} differs between traced runs: "
                f"{first[key][0]} vs {second[key][0]}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"span_fields": ["name", "owner", "start",
                                                "end", "parent", "info"],
                                "runs": [spans for spans, _ in runs]}))
    return first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_n100", "predict_serve",
                                 "cli_workflow"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    result, named, problems = measure(args.workload, args.seed, args.seconds,
                                      args.trace)
    for key, (value, unit, n) in named.items():
        print(f"{key} = {value:.6g} {unit} (n={n})")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
