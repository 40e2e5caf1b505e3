"""Record the sha256 of each op's canonical output for the default seeds.

    python3 perfbench/record_goldens.py

writes ``perfbench/goldens.json``: for every workload, seeds 0..SEEDS-1 and
ops 0..OPS-1. ``run.py`` fails any op whose digest differs from its entry,
so a speed-only change must reproduce leoplan's outputs byte for byte.
Re-record only in a change whose stated purpose is to change those outputs.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 10
OPS = 3


def main() -> int:
    run.pin_threads()
    run.locate_program()
    import workloads

    digests: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in range(SEEDS):
            row = []
            for i in range(OPS):
                result = wl.run(wl.make_input(seed, i))
                problems = wl.check(result)
                if problems:
                    print(f"{name} seed {seed} op {i} fails its checks: {problems}",
                          file=sys.stderr)
                    return 1
                row.append(workloads.output_digest(wl, result))
            digests.setdefault(name, {})[str(seed)] = row
            print(f"{name} seed {seed}: {len(row)} digests", flush=True)
    run.GOLDENS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
