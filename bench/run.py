"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload table1_report --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. The run happens in a fresh interpreter (bench/worker.py), so the
program's lazy set-up and caches start cold every time. This script times
that process's set-up from launch, reads its peak memory, derives the
metrics (times corrected for host speed, see hostspeed.py), writes
`bench/results/BENCH_<workload>-seed<seed>-trace<t>.json` and prints, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the per-layer ones, taken from the ops that ran traced.
Exits nonzero, printing no result, if the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracing import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the end-to-end metrics printed by an untraced run (BENCHMARK.json lists
# them); ops_per_s stays in the result file: it spreads more over seeds (on
# patch_sweep the share of a run the cache fill takes varies with the seed)
END_TO_END = ("setup_s", "op_p50_s", "peak_rss_mb")
# the longest a run may take before it is stopped and reported as failed
TIMEOUT_S = 170
# the reported tail is the highest of TAIL_PERCENTILES with at least this
# many samples beyond it; runs with fewer ops report no tail
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: list):
    """(percentile, value) of the highest listed percentile that leaves at
    least TAIL_BEYOND samples above it, or None for too few samples."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(round(pct / 100.0 * n, 9))  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return pct, sorted(values)[rank - 1]
    return None


def _corrected(op: dict, at, per_pass) -> float:
    """An op's main-thread CPU seconds at reference host speed."""
    return op["s"] / hostspeed.slowdown_around(op["t"], op["t"] + op["wall"], at, per_pass)


def end_to_end(worker: dict, setup_wall_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics from the untraced ops of one run.

    Times are the worker's main-thread CPU seconds corrected for host speed
    by its samples: the set-up by those taken during it, each op by those
    around it, and ops_per_s by those of the timed phase. The uncorrected
    wall-clock value of each is kept under "wall".
    """
    at, per_pass = worker["sample_at"], worker["sample_s"]
    setup_slowdown = hostspeed.slowdown(
        [p for t, p in zip(at, per_pass) if t < worker["setup_end"]])
    timed_slowdown = hostspeed.slowdown([p for t, p in zip(at, per_pass) if t >= 0.0])
    ops = [op for op in worker["ops"] if not op["traced"]]
    walls = [op["wall"] for op in ops]
    times = [_corrected(op, at, per_pass) for op in ops]
    passed = sum(1 for op in ops if not op["problems"])
    if len(ops) == len(worker["ops"]):
        timed_s, timed_wall_s = worker["timed_s"], worker["timed_wall_s"]
    else:
        timed_s, timed_wall_s = sum(op["s"] for op in ops), sum(walls)
    metrics = {
        "setup_s": {"value": worker["setup_cpu_s"] / setup_slowdown, "unit": "s",
                    "wall": setup_wall_s, "slowdown": setup_slowdown},
        "op_p50_s": {"value": statistics.median(times), "unit": "s", "n": len(times),
                     "wall": statistics.median(walls)},
        "ops_per_s": {"value": passed / timed_s * timed_slowdown, "unit": "1/s",
                      "n": len(times), "wall": passed / timed_wall_s,
                      "slowdown": timed_slowdown},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "failed_ops_frac": {"value": (len(ops) - passed) / len(ops), "unit": "frac",
                            "n": len(ops)},
    }
    t = tail(times)
    if t:
        metrics["op_tail_s"] = {"value": t[1], "unit": "s", "percentile": t[0],
                                "n": len(times), "wall": tail(walls)[1]}
    return metrics


def per_layer(worker: dict) -> tuple:
    """(printed metrics, seconds for the result file) from the traced ops."""
    layers = worker["layers"]
    counts = worker["counts"]
    # host-corrected op times, so that the overhead compares like with like
    at, per_pass = worker["sample_at"], worker["sample_s"]
    times = {True: [], False: []}
    for op in worker["ops"]:
        times[op["traced"]].append(_corrected(op, at, per_pass))
    traced, untraced = times[True], times[False]
    op_s = layers["op"]["total_s"]
    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = {"value": layers[name]["calls"], "unit": "count"}
        metrics[f"{name}.self_share"] = {"value": layers[name]["self_s"] / op_s,
                                         "unit": "frac"}
    points = counts["integrals.points"]
    curve_s = (layers["integrals.exchange_curve"]["total_s"]
               + layers["integrals.transfer_splitting_curve"]["total_s"])
    searches = layers["spins.sfg_gate"]["calls"]
    metrics.update({
        "integrals.points": {"value": points, "unit": "count"},
        "integrals.s_per_point": {"value": curve_s / points if points else 0.0,
                                  "unit": "s"},
        "spins.unclean": {"value": counts["spins.unclean"], "unit": "count"},
        "configure.scan_cells": {"value": counts["configure.scan_cells"], "unit": "count"},
        "lattice.sites": {"value": counts["lattice.sites"], "unit": "count"},
        "feasibility.self_share": {"value": layers["op"]["self_s"] / op_s, "unit": "frac"},
        "trace.op_s": {"value": op_s, "unit": "s", "n": len(traced)},
        "trace.overhead_frac": {
            "value": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "unit": "frac"},
    })
    # seconds, and ratios that need a nonzero base; in the result file only
    details = {f"{name}.self_s": layers[name]["self_s"] for name in TARGETS}
    details.update({
        "feasibility.self_s": layers["op"]["self_s"],
        "spins.s_per_search": (layers["spins.sfg_gate"]["total_s"] / searches
                               if searches else None),
        "spins.clean_ratio": ((searches - counts["spins.unclean"]) / searches
                              if searches else None),
    })
    return metrics, details


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "donorgate").is_dir():
        print(f"bench: no program at {ROOT / 'src' / 'donorgate'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"{stem}.spans.npz")]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall_s = time.monotonic() - launched
    if proc.returncode != 0:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup_wall_s = worker["ready_monotonic"] - launched - worker["setup_sampling_s"]

    ops = worker["ops"]
    failed = sum(1 for op in ops if op["problems"])
    # ops with equal inputs must give equal outputs, traced or not
    identical = (args.workload != "table1_report"
                 or len({op.get("digest") for op in ops}) == 1)
    e2e = end_to_end(worker, setup_wall_s, peak_rss_mb)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall_s, "nproc": worker["nproc"],
        "cpus_usable": worker["cpus_usable"], "versions": worker["versions"],
        **_source_identity(),
        "setup": {"import_s": worker["import_done_monotonic"] - launched,
                  "fit_s": worker["fit_s"]},
        "end_to_end": e2e,
        "host_samples": {"at": worker["sample_at"], "per_pass_s": worker["sample_s"],
                         "setup_end": worker["setup_end"]},
        "integral_cache": worker.get("integral_cache"),
        "ops": ops,
    }
    if args.trace:
        metrics, details = per_layer(worker)
        result.update(per_layer=metrics, per_layer_seconds=details,
                      spans=worker["spans"], traced_outputs_identical=identical)
        printed = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    else:
        printed = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                   for k in END_TO_END}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))

    for name, m in (result.get("per_layer") or e2e).items():
        extra = "".join(f" {k}={m[k]:.6g}" for k in ("n", "percentile", "wall", "slowdown")
                        if k in m)
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{extra}")
    for op in ops:
        for problem in op["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and identical, "attempted": len(ops),
                      "failed": failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
