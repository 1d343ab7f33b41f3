"""One benchmark run in a fresh interpreter, started by run.py.

Set-up is importing donorgate from the checkout's `src/` and making both
default Gaussian fits, which every CLI call pays before its first result.
Then the timed phase runs ops back to back for about `--seconds` (and at
least MIN_OPS ops). A hostspeed.Sampler runs throughout; the time it
takes is subtracted from the set-up, the op and the timed phase it fell in.
Times are CPU seconds of the main thread ("s"), which leave out the time the
VM's CPU was taken away (steal). The program runs on this thread and never
waits, so on a machine without steal they equal wall time. Each op also
records its wall time ("wall") and its start `t` (wall seconds into the
timed phase).
With `--trace 1`, every other op (op 0, 2, ...) runs with the layer spans
installed, so traced and untraced op times come from the same run. Prints
one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostspeed import Sampler

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 2


def _versions(dg) -> dict:
    import numpy
    import scipy

    def blas(config) -> str | None:
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": blas(numpy.show_config),
            "openblas_scipy": blas(scipy.show_config), "donorgate": dg.__version__}


def _cache_info(dg):
    """(hits, misses) of the pair-integral cache, when the program has one."""
    info = getattr(getattr(dg.integrals, "_reduced_pair", None), "cache_info", None)
    return tuple(info()[:2]) if info else None


def _elapsed(t0: float, c0: float, spent0: tuple, sampler: Sampler) -> dict:
    """CPU ("s") and wall ("wall") seconds since (t0, c0), less sampling."""
    return {"s": time.thread_time() - c0 - (sampler.spent_cpu - spent0[1]),
            "wall": time.perf_counter() - t0 - (sampler.spent_wall - spent0[0])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="write the spans of a traced run here (.npz)")
    args = ap.parse_args(argv)
    sampler = Sampler()
    with sampler.running():
        result = run(args, sampler)
    print(json.dumps(result))
    return 0


def run(args, sampler: Sampler) -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import donorgate as dg
    if src.resolve() not in Path(dg.__file__).resolve().parents:
        raise SystemExit(f"donorgate imported from {dg.__file__}, not from {src}")
    imported = time.monotonic()
    for kind in ("s1", "p2"):
        dg.fit_gaussian_expansion(dg.OrbitalSpec(kind, 1.0))
    ready = time.monotonic()
    ready_pc = time.perf_counter()
    # main-thread CPU seconds since the interpreter started, less the sampling
    setup_cpu_s = time.thread_time() - sampler.spent_cpu
    setup_sampling_s = sampler.spent_wall

    from tracing import Recorder, layer_totals
    from workloads import Workload, digest

    workload = Workload(args.workload, dg)
    recorder = Recorder() if args.trace else None
    inputs = workload.inputs(args.seed)
    cache_before = _cache_info(dg)
    ops = []
    start = time.perf_counter()
    start_cpu = time.thread_time()
    start_spent = (sampler.spent_wall, sampler.spent_cpu)
    # the next op starts only if it should finish within --seconds, judged
    # by the median op so far; this keeps long ops from overrunning the run
    while len(ops) < MIN_OPS or (time.perf_counter() - start
                                 + statistics.median(op["wall"] for op in ops) <= args.seconds):
        k = len(ops)
        inp = next(inputs)
        traced = recorder is not None and k % 2 == 0
        record = {"traced": traced}
        t0 = time.perf_counter()
        c0 = time.thread_time()
        record["t"] = t0 - start
        spent0 = (sampler.spent_wall, sampler.spent_cpu)
        try:
            with (recorder.installed() if traced else nullcontext(),
                  recorder.op_span(k) if traced else nullcontext()):
                raw = workload.run(inp)
            record.update(_elapsed(t0, c0, spent0, sampler))
            out = workload.normalize(inp, raw)
            record["problems"] = workload.problems(k, args.seed, inp, out)[:5]
            record["digest"] = digest(out)
        except Exception as err:  # a raising op is a failed op; the loop goes on
            traceback.print_exc()
            if "s" not in record:
                record.update(_elapsed(t0, c0, spent0, sampler))
            record["problems"] = [f"{type(err).__name__}: {err}"]
        ops.append(record)
    timed = _elapsed(start, start_cpu, start_spent, sampler)
    cache_after = _cache_info(dg)

    result = {
        "ready_monotonic": ready,
        "import_done_monotonic": imported,
        "fit_s": ready - imported,
        "setup_sampling_s": setup_sampling_s,
        "setup_cpu_s": setup_cpu_s,
        "timed_s": timed["s"],
        "timed_wall_s": timed["wall"],
        # host-speed samples; times are seconds from the start of the timed
        # phase, so set-up samples are the ones before setup_end
        "setup_end": ready_pc - start,
        "sample_at": [t - start for t in sampler.at],
        "sample_s": list(sampler.per_pass),
        "ops": ops,
        "versions": _versions(dg),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    if cache_before and cache_after:
        result["integral_cache"] = {"hits": cache_after[0] - cache_before[0],
                                    "misses": cache_after[1] - cache_before[1]}
    if recorder is not None:
        result["layers"] = layer_totals(recorder)
        result["counts"] = dict(recorder.counts)
        result["spans"] = len(recorder.start)
        if args.spans:
            recorder.save(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
