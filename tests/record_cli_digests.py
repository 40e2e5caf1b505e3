"""Record the CLI output digests that tests/test_cli_digests.py checks.

    PYTHONPATH=src python3 tests/record_cli_digests.py

writes ``tests/cli_digests.json``: for both bundled scenarios and every case
in ``test_cli_digests.CASES`` (and each variant's cases), the exit code, the report's scenario digest
and the sha256 of each output file. Re-record only in a change whose stated
purpose is to change those outputs, and name each moved digest in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import test_cli_digests


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        table = test_cli_digests.sweep(Path(work))
    test_cli_digests.TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    for key, row in sorted(table.items()):
        print(f"{key}: exit {row['exit']}, {len(row.get('outputs', {}))} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
