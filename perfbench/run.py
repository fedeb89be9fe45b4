#!/usr/bin/env python3
"""icmod benchmark: one workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload sweep9 --seed 1 --seconds 30 --trace 0

Run from the repository root; ``icmod`` is imported from ``src/``.  Set-up
(import plus input generation) is repeated SETUP_REPS times and its median is
``setup_s``.  The items then run pass after pass, each item starting when the
previous one returned, until ``--seconds`` have elapsed; the first pass always
completes.  Each item's result is checked by an oracle outside the timed
region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` installs the span
tracer for half of ``--seconds`` of whole passes, then repeats the same number
of passes untraced, and prints the per-layer metrics (per pass) and the
tracing overhead.  Human-readable lines go first; the last line of stdout is
the JSON result.  Results, the run environment and the first traced pass's
spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
# Host speed: on a shared 2-CPU VM, other tenants slow pure-Python code by up
# to 1.85x for tens of seconds at a time.  Every timing is therefore rescaled to the speed
# at which the reference loop below takes REFERENCE_S, measured right before
# the timed work (every CALIBRATE_EVERY_S during a pass).  Raw wall times are
# kept in the result file.
REFERENCE_S = 1e-3
CALIBRATE_EVERY_S = 0.25
MODULES = ("algebra", "staircase", "modmat", "multiplicity", "classify", "cli")
MAX_REPORTED_FAILURES = 10


def icmod_modules() -> SimpleNamespace:
    return SimpleNamespace(**{n: importlib.import_module("icmod." + n) for n in MODULES})


def import_icmod() -> SimpleNamespace:
    """Fresh import of the package, so each set-up repetition pays for it."""
    for name in [n for n in sys.modules if n == "icmod" or n.startswith("icmod.")]:
        del sys.modules[name]
    return icmod_modules()


def reference_loop() -> None:
    """Fixed integer and dict work, independent of icmod."""
    d: dict[int, int] = {}
    get = d.get
    for i in range(8000):
        k = i & 1023
        d[k] = get(k, 0) + i * i


def speed_scale() -> float:
    """Factor turning wall seconds now into seconds at the reference speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return REFERENCE_S / best


def setup(workload: str, seed: int):
    times, raw = [], []
    for _ in range(SETUP_REPS):
        scale = speed_scale()
        t0 = perf_counter()
        ic = import_icmod()
        items = WORKLOADS[workload](ic, seed)
        dt = perf_counter() - t0
        raw.append(dt)
        times.append(dt * (scale + speed_scale()) / 2)
    return items, times, raw


def measure(items, seconds: float | None = None, passes: int | None = None,
            tracer: Tracer | None = None) -> SimpleNamespace:
    """Closed loop over the items, pass after pass.

    Stops at the deadline (``seconds``) or after ``passes`` complete passes.
    The first pass always completes, so every item has a latency; with a
    tracer every pass completes, so per-pass totals are exact.  A pass's busy
    time is the sum of its items' latencies; oracle checks are untimed.
    """
    lat: list[list[float]] = [[] for _ in items]
    pass_busy: list[float] = []  # wall seconds, not rescaled
    attempted = failed = 0
    failures: list[str] = []
    start = perf_counter()
    scale, next_calibration = speed_scale(), start + CALIBRATE_EVERY_S
    wall = rescaled = 0.0

    def done() -> bool:
        if passes is not None:
            return len(pass_busy) >= passes
        return bool(pass_busy) and perf_counter() - start >= seconds

    while not done():
        gc.collect()
        busy = 0.0
        for i, item in enumerate(items):
            if tracer is None and done():
                break
            if perf_counter() >= next_calibration:
                scale = speed_scale()
                next_calibration = perf_counter() + CALIBRATE_EVERY_S
            if tracer is not None:
                tracer.item = i
            error = None
            t0 = perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a failed item is counted, not fatal
                dt = perf_counter() - t0
                error = f"{type(exc).__name__}: {exc}"
            else:
                dt = perf_counter() - t0
                try:
                    if not item.check(out):
                        error = "wrong result"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            attempted += 1
            busy += dt
            wall += dt
            rescaled += dt * scale
            lat[i].append(dt * scale)
            if error is not None:
                failed += 1
                if len(failures) < MAX_REPORTED_FAILURES:
                    failures.append(f"{item.label}: {error}")
        else:
            pass_busy.append(busy)
            if tracer is not None:
                tracer.keep_spans = False
    return SimpleNamespace(lat=lat, pass_busy=pass_busy, attempted=attempted,
                           failed=failed, failures=failures, scale=rescaled / wall)


def item_latencies(run) -> list[float]:
    """Each item's median latency over its repeats, at the reference speed."""
    return [median(x) for x in run.lat]


def end_to_end(run, setup_times):
    """End-to-end metrics and the number of items above p90."""
    per_item = item_latencies(run)
    p90 = quantiles(per_item, n=10)[8]
    return {
        "setup_s": (median(setup_times), "s"),
        "items_per_s": (len(per_item) / sum(per_item), "1/s"),
        "item_p50_ms": (1e3 * median(per_item), "ms"),
        "item_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, sum(1 for x in per_item if x > p90)


def traced(items, seconds: float, workload: str, seed: int):
    tracer = Tracer()
    # one traced set-up attributes input generation to the staircase layer
    scale = speed_scale()
    tracer.install()
    WORKLOADS[workload](icmod_modules(), seed)
    setup_staircase = tracer.stats["staircase"][1] * scale
    tracer.uninstall()

    tracer.install()
    run = measure(items, seconds=seconds / 2, tracer=tracer)
    tracer.uninstall()
    k = len(run.pass_busy)
    reference = measure(items, passes=k)
    metrics = tracer.layer_metrics(k, run.scale)
    metrics["staircase.setup_busy_s"] = (setup_staircase, "s")
    traced_rate = len(items) / sum(item_latencies(run))
    untraced_rate = len(items) / sum(item_latencies(reference))
    metrics["trace.items_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.items_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "ratio")
    run.attempted += reference.attempted
    run.failed += reference.failed
    run.failures += reference.failures
    return metrics, run, tracer.spans


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    env = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "icmod" / "__init__.py").is_file():
        print(f"error: no icmod package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    items, setup_times, setup_raw = setup(args.workload, args.seed)
    spans = []
    if args.trace:
        metrics, run, spans = traced(items, args.seconds, args.workload, args.seed)
    else:
        run = measure(items, seconds=args.seconds)
        metrics, above_p90 = end_to_end(run, setup_times)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(items)} items a pass, "
          f"{len(run.pass_busy)} complete passes, {run.attempted} attempted, "
          f"{run.failed} failed")
    if not args.trace:
        print(f"items above p90: {above_p90}")
        print(f"wall-clock items_per_s {len(items) / median(run.pass_busy):.6g} 1/s "
              f"and setup_s {median(setup_raw):.6g} s, not rescaled")
    for line in run.failures:
        print("FAILED " + line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {run.failed / run.attempted:.6g} ratio")
    if args.trace:
        print("multiplicity trials accepted/aborted/degenerate: not measured "
              "until ROADMAP item 5 exposes them")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setup_times_s=setup_times, setup_raw_s=setup_raw,
                  pass_busy_s=run.pass_busy, items_per_pass=len(items))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
