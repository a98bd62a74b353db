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
