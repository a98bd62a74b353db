import ast
import os
import subprocess
import sys
from pathlib import Path

import hetrvm

# the public API as README.md's "Package API" section lists it
PUBLIC = [
    "Dataset", "DataError", "Standardization", "SynthSpec", "load_csv",
    "standardize", "synth",
    "KernelSpec", "RvmConfig", "VIConfig", "EpConfig",
    "fit_rvm", "fit_vi", "fit_ep",
    "HrvmModel", "PredictiveDist", "predict", "nlpd", "rmse",
    "save_model", "load_model", "SchemaError", "FactorizationError",
]


def test_all_is_the_documented_public_api():
    assert len(set(hetrvm.__all__)) == len(hetrvm.__all__)
    assert sorted(hetrvm.__all__) == sorted(PUBLIC)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Package API", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    exec("from hetrvm import *", namespace)
    for name in PUBLIC:
        assert f"`{name}`" in section, name
        assert namespace[name] is getattr(hetrvm, name)


def test_import_leaves_optimizer_unloaded():
    """Importing the package and its CLI does not import scipy.optimize:
    only ``fit_vi`` needs it, and it is a third of the start-up time."""
    src = str(Path(hetrvm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, hetrvm, hetrvm.cli; print(hetrvm.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    where, loaded = out.stdout.splitlines()
    assert Path(where).resolve() == Path(hetrvm.__file__).resolve()
    assert loaded == "[]"


def test_module_layering():
    """The trainers share their core through ``core``, ``numerics`` and
    ``kernels``: no private name is imported from one of the trainer
    modules ``rvm``, ``vi`` and ``ep`` into another of them, or into
    ``predict``, ``serialize`` or ``cli``.  Only ``numerics`` uses
    ``chol_factor``; another module may bind it by import, for
    perfbench's tracer, and reads it nowhere."""
    trainers = {"rvm", "vi", "ep"}
    readers = trainers | {"predict", "serialize", "cli"}
    src = Path(hetrvm.__file__).resolve().parent
    crossings, uses = [], []
    for path in sorted(src.glob("*.py")):
        name = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                if (node.level or node.module.startswith("hetrvm.")) and (
                        source in trainers and name in readers - {source}):
                    crossings += [(name, source, alias.name)
                                  for alias in node.names
                                  if alias.name.startswith("_")]
            used = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if used == "chol_factor" and name != "numerics":
                uses.append((name, node.lineno))
    assert not crossings
    assert not uses
