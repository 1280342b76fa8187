"""Dependency guard: the package runs on numpy and the standard library."""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
SCENARIO = str(ROOT / "scenarios" / "illustrative.scenario")
ALLOWED = {"numpy", "demandalloc"}


def _fresh(probe: str):
    """The JSON that probe prints in a fresh interpreter with the package on
    its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _top_level_modules(statement: str) -> set:
    """Top-level names in sys.modules of a fresh interpreter after statement."""
    return set(_fresh(f"{statement}\nimport json, sys\n"
                      "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"))


def test_cli_imports_only_numpy_and_the_stdlib():
    added = _top_level_modules("import demandalloc.cli") - _top_level_modules("")
    foreign = sorted(m for m in added
                     if m not in sys.stdlib_module_names and m not in ALLOWED)
    assert "demandalloc" in added and "numpy" in added
    assert foreign == []


def test_every_exported_name_resolves():
    # and the reverse: every public name the package imports is exported,
    # so a removed name cannot linger in only one of the two lists
    import demandalloc
    missing = [name for name in demandalloc.__all__
               if not hasattr(demandalloc, name)]
    assert missing == []
    assert len(set(demandalloc.__all__)) == len(demandalloc.__all__)
    unlisted = [name for name, value in vars(demandalloc).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)
                and name not in demandalloc.__all__]
    assert unlisted == []


def test_cli_import_loads_no_csv_module():
    # every CSV writer formats its own header and rows
    assert "csv" not in _top_level_modules("import demandalloc.cli")


def test_cli_import_loads_no_dataclasses_or_statistics():
    # the records are NamedTuples and the normal quantile is the C function
    # that NormalDist.inv_cdf returns; statistics imports fractions and decimal
    loaded = _top_level_modules("import demandalloc.cli")
    assert loaded & {"dataclasses", "statistics", "fractions", "decimal"} == set()


def test_factor_and_optimize_load_no_numpy_polynomial():
    # the Newton polish of the roots evaluates with numpy's core Horner
    for argv in (["factor", "1", "2"], ["optimize", "--scenario", SCENARIO]):
        assert _fresh("import contextlib, io, json, sys\n"
                      "from demandalloc.cli import main\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      f"    assert main({argv!r}) == 0\n"
                      "print(json.dumps('numpy.polynomial' in sys.modules))") is False


def test_cli_import_compiles_no_predictor():
    # the per-degree predictors are generated on first use, never at import
    assert _fresh("import demandalloc.cli\nfrom demandalloc import forecast\n"
                  "print(forecast._recursion.cache_info().currsize)") == 0
