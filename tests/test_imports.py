"""Dependency guard: the package runs on numpy and the standard library."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
ALLOWED = {"numpy", "demandalloc"}


def _top_level_modules(statement: str) -> set:
    """Top-level names in sys.modules of a fresh interpreter after statement."""
    probe = (f"{statement}\nimport json, sys\n"
             "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout))


def test_cli_imports_only_numpy_and_the_stdlib():
    added = _top_level_modules("import demandalloc.cli") - _top_level_modules("")
    foreign = sorted(m for m in added
                     if m not in sys.stdlib_module_names and m not in ALLOWED)
    assert "demandalloc" in added and "numpy" in added
    assert foreign == []


def test_every_exported_name_resolves():
    import demandalloc
    missing = [name for name in demandalloc.__all__
               if not hasattr(demandalloc, name)]
    assert missing == []
    assert len(set(demandalloc.__all__)) == len(demandalloc.__all__)
