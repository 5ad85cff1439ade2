"""Each module of the package imports on its own, in a fresh interpreter.

The package `__init__` imports none of them, so no import order fixed
there can hide an import cycle between them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopsim"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _python(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    _python(f"import hopsim.{module}")


def test_package_gives_version_and_file_only():
    script = (
        "import sys, hopsim\n"
        "print(hopsim.__version__)\n"
        "print(hopsim.__file__)\n"
        "print(sorted(m for m in sys.modules if m.startswith('hopsim.')))\n"
    )
    version, file, submodules = _python(script).splitlines()
    assert f'version = "{version}"' in (ROOT / "pyproject.toml").read_text()
    assert Path(file).resolve().parent == PACKAGE.resolve()
    assert submodules == "[]"
