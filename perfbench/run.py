"""revquic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run from the repository root. With --trace 0 the last line of standard
output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with --trace 1 it holds every per-layer metric, taken
by wrapping the calls into each module from outside the program. The
line before it records the host and the sample counts, and the same
record is written to perfbench/_out/. The exit code is 0 only when
every output check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"
WORKLOADS = ("bulk", "lossy", "rpc")


def host_facts(loopback: bool) -> dict:
    import cryptography

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "path": ("in-process, and for the cli layer UDP over 127.0.0.1 (loopback, not a real link)"
                 if loopback else "in-process, no sockets"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import workloads as wl

    tally = wl.Tally()
    if trace:
        import tracer

        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        metrics, info = tracer.traced_workload(workload, seed, seconds, tally, smoke, spans)
    elif workload == "rpc":
        metrics, info = wl.rpc_workload(seed, seconds, tally, smoke)
    else:
        metrics, info = wl.transfer_workload(wl.transfer_spec(workload, smoke), seed, seconds, tally)
    return tally, metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "revquic").is_dir():
        print(f"error: no revquic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    tally, values, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            tally.record(False, f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "host": host_facts(args.trace == 1 and args.workload == "bulk"),
        "info": info,
        "errors": tally.errors,
    }
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
