"""leoplan benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fed_ground --seed 0 --seconds 30 --trace 0

Run from the root of a leoplan checkout; the program is imported from its
``src/``. A run

1. pins the numpy/BLAS/OpenMP thread pools to one thread;
2. with ``--trace 0``, measures ``setup_s``: host seconds from spawning a
   fresh interpreter until the first op is ready (``import leoplan``, parsing
   the first op's scenario, building its shell), the median of SETUP_SAMPLES
   child processes;
3. runs ops back to back for ``--seconds`` seconds (at least MIN_OPS), timing
   each op from parse to result, the first op included;
4. checks every op's output outside the timed region, including the sha256 of
   its canonical output against ``goldens.json`` where one is recorded;
5. prints a machine line, a summary line and, last, one JSON object.

End-to-end timings are host seconds at the nominal machine speed (see
``speed.py``); the summary line also prints the raw wall-clock median. With
``--trace 1`` every other op runs with the layer trace installed (see
``layers.py``), the JSON holds the per-layer metrics in raw host seconds, the
spans are written under ``.perfbench/``, and the run fails if a layer the
workload is known to call recorded no call. Simulated seconds, bits and
energy are outputs to check, never metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
SPAN_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 7
MIN_OPS = 3
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Each setup sample: a fresh interpreter samples its own speed, reads the
# first op's scenario from stdin as a CLI user's file, and reports when it
# could start the op.
SETUP_CHILD = """\
import speed
sampler = speed.SpeedSampler()
sampler.start()
import json, sys
import leoplan
scn = leoplan.parse_scenario(json.load(sys.stdin))
leoplan.build_walker(scn.constellation)
sampler.stop()
print(json.dumps({"busy": sampler.busy(float("-inf"), float("inf")),
                  "mean": sampler.mean()}), flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result; exits nonzero without one."""


def pin_threads() -> None:
    """Pin native thread pools to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def locate_program() -> None:
    """Put the checkout's src/ first on sys.path and import leoplan from it."""
    if not (SRC / "leoplan" / "__init__.py").is_file():
        raise BenchError(f"no leoplan sources under {SRC}; run from a leoplan checkout")
    sys.path.insert(0, str(SRC))
    import leoplan
    if Path(leoplan.__file__).resolve().parent != (SRC / "leoplan").resolve():
        raise BenchError(f"imported leoplan from {leoplan.__file__}, not from {SRC}")


def machine() -> str:
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} threads=1")


def measure_setup(first_input: dict, samples: int) -> list:
    """Nominal-speed seconds from spawning a fresh interpreter until it is ready."""
    import speed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    text = json.dumps(first_input["scenario"])
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as proc:
            proc.stdin.write(text)
            proc.stdin.close()
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.strip():
            raise BenchError(f"setup child exited {code} before it was ready")
        child = json.loads(line)
        out.append((t1 - t0 - child["busy"]) * speed.NOMINAL_S / child["mean"])
    return out


def tail(times: list) -> tuple:
    """(seconds, percentile, ops beyond) at the highest percentile that has
    TAIL_BEYOND ops beyond it.

    A run with too few ops for that percentile to lie above the median has
    no such tail; it reports its slowest op (p100, 0 beyond) instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k + 1 > n / 2:
        return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def load_goldens(workload: str, seed: int) -> list:
    if not GOLDENS.is_file():
        return []
    table = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), [])


def run_ops(wl, seed: int, seconds: float, tracer=None) -> list:
    """Closed loop: the next op starts only when the previous one is checked.

    With a tracer, odd-numbered ops run traced. Every op is speed-sampled, so
    in a traced op the sampler's kernel (about 1% of the time) falls inside
    the layer spans. Returns one record per op.
    """
    import speed
    from workloads import output_digest
    goldens = load_goldens(wl.name, seed)
    sampler = speed.SpeedSampler()
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        inp = wl.make_input(seed, i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        sampler.start()
        t0 = time.perf_counter()
        try:
            result, problems = wl.run(inp), []
        except Exception:  # a failed op is counted and reported; the run goes on
            result, problems = None, ["op raised:\n" + traceback.format_exc()]
        t1 = time.perf_counter()
        sampler.stop()
        if traced:
            tracer.uninstall()
        record = {"op": i, "host_s": t1 - t0 - sampler.busy(t0, t1),
                  "nominal_s": sampler.nominal(t0, t1), "traced": traced}
        digest = None
        if result is not None:
            problems += wl.check(result)
            digest = output_digest(wl, result)
            if i < len(goldens) and digest != goldens[i]:
                problems.append(f"output digest {digest} differs from the recorded "
                                f"golden {goldens[i]}")
        for p in problems:
            print(f"op {i} FAILED: {p}", file=sys.stderr)
        record["ok"] = not problems
        record["quality"] = wl.quality(result) if (record["ok"] and wl.quality) else {}
        records.append(record)
        i += 1
    return records


def end_to_end(records: list, setup: list) -> tuple:
    """End-to-end metrics {name: (value, unit)} and a one-line summary."""
    times = [r["nominal_s"] for r in records]
    failed = sum(1 for r in records if not r["ok"])
    tail_s, pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    summary = (f"setup_s={metrics['setup_s'][0]:.4f} s  "
               f"op_p50_s={metrics['op_p50_s'][0]:.4f} s "
               f"(raw {statistics.median(r['host_s'] for r in records):.4f} s)  "
               f"op_tail_s={tail_s:.4f} s (p{pct:.1f}, n={len(times)}, {beyond} beyond)  "
               f"peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB  "
               f"fail_ratio={failed / len(records):.4f} ({failed}/{len(records)})")
    return metrics, summary


def per_layer(records: list, tracer) -> dict:
    """Per-layer metrics {name: (value, unit)} from the spans and the op outputs."""
    import layers
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    values = layers.layer_values(tracer.spans, tracer.calls, [r["op"] for r in traced])

    def median_or_0(found):
        return statistics.median(found) if found else 0.0

    for name, _, _ in layers.QUALITY_METRICS:
        values[name] = median_or_0([r["quality"][name] for r in records if name in r["quality"]])
    values["simkernel.sim_s_per_host_s"] = median_or_0(
        [r["quality"]["sim_seconds"] / r["host_s"] for r in plain if "sim_seconds" in r["quality"]])
    # Op 2k runs untraced and op 2k+1 traced, close in time: the median of the
    # pairs' nominal-speed ratios is less sensitive to machine drift than a
    # ratio of the two medians.
    values["trace.overhead"] = statistics.median(
        records[k + 1]["nominal_s"] / records[k]["nominal_s"]
        for k in range(0, len(records) - 1, 2)) - 1.0
    return {name: (values[name], unit) for name, unit, _ in layers.per_layer_specs()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="leoplan benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("fed_ground", "shell_plan", "desk_solvers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin_threads()
        locate_program()
        import layers
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        print(f"machine: {machine()}")
        tracer = layers.Tracer() if args.trace else None
        setup = [] if args.trace else measure_setup(wl.make_input(args.seed, 0),
                                                    SETUP_SAMPLES)
        records = run_ops(wl, args.seed, args.seconds, tracer)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        spans_path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        calls = tracer.total_calls()
        missing = [name for name in layers.EXPECTED_LAYERS[args.workload]
                   if calls.get(name, 0) == 0]
        if missing:
            print("traced run failed: no calls recorded for " + ", ".join(missing),
                  file=sys.stderr)
            return 3
        metrics = per_layer(records, tracer)
        n_traced = sum(1 for r in records if r["traced"])
        print(f"{args.workload} seed={args.seed} traced ops {n_traced} of {len(records)}; "
              f"spans in {spans_path}")
    else:
        metrics, summary = end_to_end(records, setup)
        print(f"{args.workload} seed={args.seed} {summary}")
    failed = sum(1 for r in records if not r["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
