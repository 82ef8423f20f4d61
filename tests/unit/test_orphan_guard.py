"""The orphan guard (``scripts/orphans.sh``) that ``scripts/check.sh`` runs.

Each case builds a tiny checkout in ``tmp_path`` with one module or
package nothing outside itself imports, and expects the guard to name it.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GUARD = ROOT / "scripts" / "orphans.sh"


def checkout(root: Path, files: dict) -> Path:
    """A checkout whose ``repro.used`` module is imported by a script."""
    base = {
        "src/repro/__init__.py": "",
        "src/repro/used.py": "VALUE = 1\n",
        "scripts/tool.py": "from repro import used\n",
        "benchmarks/__init__.py": "",
        "examples/__init__.py": "",
    }
    for name, text in {**base, **files}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def guard(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["bash", str(GUARD), str(root)], capture_output=True, text=True, timeout=60
    )


def orphans(root: Path) -> list:
    run = guard(root)
    assert run.returncode == 1, run.stdout + run.stderr
    return run.stderr.splitlines()[1:]


def test_the_repository_has_no_orphan_module():
    run = guard(ROOT)
    assert run.returncode == 0, run.stderr


def test_a_module_that_only_imports_itself_is_an_orphan(tmp_path):
    root = checkout(tmp_path, {"src/repro/lonely.py": "import repro.lonely\n"})
    assert orphans(root) == ["repro.lonely"]


def test_an_import_from_a_test_does_not_count(tmp_path):
    root = checkout(
        tmp_path,
        {
            "src/repro/tested.py": "VALUE = 2\n",
            "tests/test_tested.py": "from repro.tested import VALUE\n",
        },
    )
    assert orphans(root) == ["repro.tested"]


def test_a_package_whose_parts_import_only_each_other_is_an_orphan(tmp_path):
    root = checkout(
        tmp_path,
        {
            "src/repro/layer/__init__.py": "from repro.layer.part import PART\n",
            "src/repro/layer/part.py": "from repro.layer import other\nPART = other.X\n",
            "src/repro/layer/other.py": "X = 3\n",
            "src/repro/kept/__init__.py": "from repro.kept import inner\n",
            "src/repro/kept/inner.py": "Y = 4\n",
            "examples/demo.py": "import repro.kept\n",
        },
    )
    # repro.kept is imported by an example; repro.kept.inner has a user
    # inside its package, and that is enough for a module
    assert orphans(root) == ["repro.layer"]
