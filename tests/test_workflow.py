"""The CI workflow names some tests by node id; each of them must exist.

pytest collects a node id that names no test as an error, so a test that
is renamed or deleted without updating the workflow would fail only in
CI. This guard fails here instead.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_node_ids(text: str) -> list[str]:
    """Every `tests/<file>.py::<name>` node id in `text`, in order."""
    return re.findall(r"tests/[\w/]+\.py::\S+", text)


def test_every_node_id_in_the_workflow_collects():
    ids = workflow_node_ids(WORKFLOW.read_text())
    assert ids, "the workflow names no test node id"
    src = str(ROOT / "src")
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    collected = out.stdout.splitlines()
    for node_id in ids:
        assert any(line.startswith(node_id) for line in collected), node_id
