"""Pin the bytes of every CLI output on the bundled scenarios.

Each case runs one subcommand in-process on one bundled scenario and keeps
its exit code, the sha256 of each output file (by file name) and the run
report's ``scenario_digest``. The test compares the sweep with the committed
table ``cli_digests.json``; re-record it with ``tests/record_cli_digests.py``
only in a change whose stated purpose is to change these outputs. Each
variant runs some cases on a bundled scenario with some top-level sections
changed, to pin a path no bundled scenario takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from leoplan.cli import main

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = ("demo_walker6", "two_task_sharing")
TABLE = Path(__file__).resolve().parent / "cli_digests.json"
REQUEST = {"task_id": "imaging", "source": "o2s3", "gateway": "o0s3"}

# (case name, subcommand argv after the scenario path); orchestrate reads the
# plan that deploy-greedy wrote, so it runs after it.
CASES = (
    ("simulate-ground", ["simulate", "--mode", "ground", "--emit-plot-data"]),
    ("simulate-decentralized", ["simulate", "--mode", "decentralized", "--emit-plot-data"]),
    ("downlink", ["downlink"]),
    ("allreduce", ["allreduce"]),
    ("routes", ["routes"]),
    ("deploy-exact", ["deploy", "--solver", "exact"]),
    ("deploy-pg", ["deploy", "--solver", "pg"]),
    ("deploy-greedy", ["deploy", "--solver", "greedy"]),
    ("orchestrate", ["orchestrate", "--plan", "{deploy-greedy}/plan.json",
                     "--request", "{request}"]),
)

# variant name -> (bundled scenario, top-level changes, cases run): an object
# updates its section's fields, any other value replaces the section. No
# bundled scenario freezes its topology or has no ground station.
VARIANTS = {
    "demo_walker6_frozen": ("demo_walker6", {"federation": {"freeze_topology": True}},
                            ("simulate-ground", "simulate-decentralized")),
    "demo_walker6_no_stations": ("demo_walker6", {"ground_stations": []},
                                 ("simulate-ground", "downlink")),
}


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def sweep(work: Path) -> dict:
    """Run every case on every bundled scenario, and each variant's cases,
    under work; return the table."""
    request = work / "request.json"
    request.write_text(json.dumps(REQUEST), encoding="utf-8")
    runs = [(name, REPO / "scenarios" / f"{name}.json", CASES) for name in SCENARIOS]
    for name, (base, changes, cases) in VARIANTS.items():
        body = json.loads((REPO / "scenarios" / f"{base}.json").read_text(encoding="utf-8"))
        for key, value in changes.items():
            body[key] = {**body[key], **value} if isinstance(value, dict) else value
        path = work / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        runs.append((name, path, [c for c in CASES if c[0] in cases]))
    table: dict = {}
    for name, scenario, cases in runs:
        dirs = {"request": str(request)}
        for case, args in cases:
            out_dir = work / name / case
            dirs[case] = str(out_dir)
            argv = [args[0], str(scenario), "--out-dir", str(out_dir)]
            argv += [a.format(**dirs) for a in args[1:]]
            code, stdout = _run(argv)
            row: dict = {"exit": code}
            if code == 0:
                report = json.loads(stdout)
                row["scenario_digest"] = report["scenario_digest"]
                row["outputs"] = {
                    Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    for p in report["outputs"]}
            table[f"{name}/{case}"] = row
    return table


def test_cli_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    swept = sweep(tmp_path)
    assert sorted(swept) == sorted(recorded)
    for key, row in swept.items():
        assert row == recorded[key], key
