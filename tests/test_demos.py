"""The bundled demos run and print the same bytes.

Each demo is deterministic, so its stdout is pinned by sha256. A demo whose
output changes on purpose is a behaviour change: record the new digest with
`PYTHONPATH=src python demos/<name>.py | sha256sum` and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_constellation_and_windows.py":
        "6e102ce247837e07e07c0e33a6d111755a9774526b8aac251e97a86bd9db2114",
    "02_ring_allreduce.py":
        "0497c12e9c2e0c568364979fa2a9a00f3898e278521d461f2b8c0e6abdfc161b",
    "03_routes_and_downlink.py":
        "71a7dbf6662a66dfc5cfcde8efc1d4a0b147ba755423dfec65bd2415420d636f",
    "04_federated_round.py":
        "834c0113c85dcce6d62c8edd0ea69f6d250485d69dfb344944394bb515d4ee35",
    "05_deploy_and_orchestrate.py":
        "58b390a95ad9cce98b63a7238fd19ec45f7bcf8fd4910925cd68b8cf8078a65f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], capture_output=True,
                          env=env, cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], \
        proc.stdout.decode()
