"""One repetition of a workload in a fresh interpreter.

    python3 -I -S perfbench/worker.py --root DIR --workload NAME --seed N
        --trace 0|1 --spawned-at T [--setup-only] [--spans PATH]

`--spawned-at` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so setup time covers interpreter start,
`import interarr`, the golden-table load and input generation.  Prints one
JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


# The calibration runs this many times when set-up ends, and then before an
# item once CALIBRATE_EVERY_S of item time has passed since the last run.
CALIBRATIONS_AT_SETUP = 3
CALIBRATE_EVERY_S = 0.5


def calibration_s() -> float:
    """Seconds for a fixed piece of tuple and dict work that uses nothing of
    interarr; it tracks the speed the shared machine gives the process."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(75_000):
            key = (i % 127, i % 113)  # 14351 keys, about 2 MB
            counts[key] = counts.get(key, 0) + 1
        len(set(counts))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Per-item wall and CPU time, with calibration runs between items; also
    tells the tracer which item is running."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.items: list[dict] = []
        self.calibrations: list[float] = []
        self._since_calibration = 0.0
        self._t0 = self._c0 = 0.0

    def start(self, item_id: str) -> None:
        if self._since_calibration >= CALIBRATE_EVERY_S:
            self.calibrations.append(calibration_s())
            self._since_calibration = 0.0
        if self.tracer is not None:
            self.tracer.item = item_id
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()

    def stop(self, item_id: str, error: str | None = None) -> None:
        seconds = time.perf_counter() - self._t0
        self._since_calibration += seconds
        self.items.append({"id": item_id, "seconds": seconds,
                           "cpu_seconds": time.process_time() - self._c0, "error": error})


def run_items(items, clock: Clock) -> None:
    """Run every item; a wrong result or an exception is recorded against
    the item and never stops the pass."""
    for item in items:
        clock.start(item.id)
        error = None
        try:
            item.run()
        except Exception as exc:  # any failure is one failed item
            error = f"{type(exc).__name__}: {exc}"
        clock.stop(item.id, error)


def run_verify(verify, clock: Clock) -> None:
    timer = Clock(clock.tracer)
    results = verify.run(timer)
    clock.calibrations += timer.calibrations
    timed = {entry["id"]: entry for entry in timer.items}
    for label, error in results:
        entry = timed.get(label, {})
        clock.items.append({"id": label, "seconds": entry.get("seconds"),
                            "cpu_seconds": entry.get("cpu_seconds"), "error": error})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import interarr
    if not os.path.abspath(interarr.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"interarr imported from {interarr.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    items = workloads.make_items(args.workload, args.seed, workloads.load_tables())
    setup_s = time.monotonic() - args.spawned_at
    calibrations = [calibration_s() for _ in range(CALIBRATIONS_AT_SETUP)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibrations}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    clock = Clock(tracer)
    clock.calibrations += calibrations
    c0 = time.process_time()
    t0 = time.perf_counter()
    if isinstance(items, workloads.VerifyRun):
        run_verify(items, clock)
    else:
        run_items(items, clock)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    timed = [e["seconds"] for e in clock.items if e["seconds"] is not None]
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # when no item could be timed on its own, the pass is the item
        "slowest_item_s": max(timed) if timed else wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": clock.calibrations,
        "items": clock.items,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
