"""The interarr benchmark: one workload, one seed, every result checked.

    python3 perfbench/run.py --workload chow-table|gamma-table|files|verify
        --seed N --seconds S --trace 0|1

Run from the root of a source tree that has `src/interarr`.  Each
repetition ("pass") runs the whole workload in a fresh interpreter, so
`ru_maxrss` and interarr's walk cache start empty every time.  Passes are
repeated while the next one is expected to end within `--seconds`, with
at least two untraced passes, or with `--trace 1` one untraced and one
traced pass.  Set-up is also timed in extra processes that stop after it.

Every item (a table row, a file or a verify check) is timed on its own in
every pass.  Every process also times a fixed calibration
(worker.calibration_s: tuple and dict work that uses nothing of interarr)
three times when set-up ends and then every half second between items, and
its times are scaled by its mean speed: the mean over its calibrations of
CALIBRATION_REF_S / (calibration time).
The end-to-end metrics (`--trace 0`) are then medians of scaled times:
wall_s and cpu_s are the sums over items of each item's median scaled wall
and CPU time over the untraced passes, slowest_item_s the largest of those
medians and setup_s the median scaled set-up time over every process.
They are seconds on a machine that runs the calibration in
CALIBRATION_REF_S, which a change to interarr cannot move.  peak_rss_mb is
the median over passes.

The scaling answers how a shared machine varies: the speed it gives one
process drifts by up to 2x over minutes, and at times flips between two
speeds from one calibration to the next.  An item of a second or more
runs at the mean of that speed, which is what the mean over the
calibrations estimates; their median would pick one of the two.  The
median over passes then drops a pass that a burst of a neighbour's load
slowed.

With `--trace 1` the metrics are the per-layer numbers of the traced
passes (see tracing.py) and trace.overhead_s, the traced minus the
untraced wall_s.  The lines before the last give the machine, every metric
with the median and quartiles of its values per process (for wall_s, cpu_s
and slowest_item_s, unscaled whole passes), the error rate and the failed
items; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Full results and trace spans go to
`.bench_out/`.

Exit status: 0 when a result was printed (a failed check is reported in the
result, not by the status); 2 when the source tree or the flags are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from tracing import COUNTS, METRICS, OVERHEAD  # noqa: E402

WORKLOADS = ("chow-table", "gamma-table", "files", "verify")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "slowest_item_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
# Set-up measured in processes that stop after set-up, besides every pass.
SETUP_ONLY_SPAWNS = 4
# worker.calibration_s's usual time on the machine the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11.7) when it was quiet.
CALIBRATION_REF_S = 0.013
# Every process is given what is left of this; a run must end within 180 s.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, deadline: float, setup_only=False, spans=None) -> dict:
    cmd = [sys.executable, "-I", "-S", str(WORKER), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise WorkerError("out of time before the pass could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"pass did not finish within {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4)[i] for i in (1, 0, 2))


def scale(process: dict) -> float:
    """The factor that turns the process's times into reference seconds."""
    return statistics.fmean(CALIBRATION_REF_S / c for c in process["calibration_s"])


def item_times(passes) -> dict:
    """Item id -> (median scaled wall s, median scaled CPU s) over the
    passes.  A pass whose items were not all timed (verify when cli's
    per-check runner is gone) counts as one item, "pass"."""
    times = {}
    for p in passes:
        items = p["items"]
        if not items or any(i["seconds"] is None for i in items):
            items = [{"id": "pass", "seconds": p["wall_s"], "cpu_seconds": p["cpu_s"]}]
        k = scale(p)
        for i in items:
            times.setdefault(i["id"], []).append((k * i["seconds"], k * i["cpu_seconds"]))
    return {iid: (statistics.median(w for w, _ in v), statistics.median(c for _, c in v))
            for iid, v in times.items()}


def scaled_times(passes) -> dict:
    """wall_s, cpu_s and slowest_item_s of the passes (see the module docstring)."""
    times = item_times(passes).values()
    return {"wall_s": sum(w for w, _ in times), "cpu_s": sum(c for _, c in times),
            "slowest_item_s": max(w for w, _ in times)}


def source_digest() -> str:
    """sha256 over the files under src/, for trees that are not git checkouts."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "commit": commit, "source_sha256": source_digest()}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, 0, deadline, setup_only=True)
              for _ in range(SETUP_ONLY_SPAWNS)]
    OUT_DIR.mkdir(exist_ok=True)
    modes = (0, 1) if trace else (0,)
    passes = {0: [], 1: []}
    errors = []
    # The second untraced pass is never skipped for a slow first pass: that
    # would keep exactly the slowed runs at one pass.
    min_rounds = 1 if trace else 2
    begin = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            spans = OUT_DIR / f"spans-{workload}-seed{seed}-pass{len(passes[1])}.json" if mode else None
            try:
                result = spawn(workload, seed, mode, deadline, spans=spans)
            except WorkerError as exc:
                errors.append(str(exc))
                break
            passes[mode].append(result)
            setups.append({"setup_s": result["setup_s"], "calibration_s": result["calibration_s"]})
        rounds += 1
        expected_end = (time.monotonic() - begin) * (rounds + 1) / rounds
        if errors or (rounds >= min_rounds and expected_end > seconds):
            break
    return {"setups": setups, "passes": passes, "errors": errors}


def summarize(workload: str, seed: int, trace: int, raw: dict) -> tuple[dict, list[str]]:
    passes = raw["passes"]
    measured = passes[1] if trace else passes[0]
    attempted = failed = 0
    failures = []
    for p in passes[0] + passes[1]:
        for item in p["items"]:
            attempted += 1
            if item["error"] is not None:
                failed += 1
                failures.append(f"{item['id']}: {item['error']}")
    for err in raw["errors"]:
        # a pass that crashed or ran out of time fails as one item
        attempted += 1
        failed += 1
        failures.append(f"pass: {err}")

    rows = {}  # metric -> (unit, values)
    if trace:
        absent = sorted(set().union(*(p["absent"] for p in measured))) if measured else []
        for name, (unit, _, _) in METRICS.items():
            values = [p["layers"][name] for p in measured if name in p["layers"]]
            if values:
                rows[name] = (unit, values)
        if passes[0] and passes[1]:
            rows[OVERHEAD] = ("s", [scaled_times(passes[1])["wall_s"]
                                    - scaled_times(passes[0])["wall_s"]])
        for name in COUNTS:
            if name in rows and len(set(rows[name][1])) > 1:
                failed += 1
                attempted += 1
                failures.append(f"trace: {name} differs between passes: {rows[name][1]}")
    else:
        absent = []
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                values = [p["setup_s"] * scale(p) for p in raw["setups"]]
            else:
                values = [p[name] for p in measured]
            if values:
                rows[name] = (unit, values)

    lines = [f"workload {workload} seed {seed} trace {trace}: {len(passes[0])} untraced and "
             f"{len(passes[1])} traced passes, {len(raw['setups'])} set-ups"]
    lines.append(f"{'metric':34} {'value':>14} {'pass median':>14} {'q1':>14} {'q3':>14} "
                 f"{'n':>3}  unit")
    metrics = {}
    reported = {}
    if not trace and measured:
        reported = scaled_times(measured)
    for name, (unit, values) in rows.items():
        med, q1, q3 = quartiles(values)
        value = reported.get(name, med)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:34} {value:14.6g} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                     f"{len(values):3}  {unit}")
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"{'error_rate':34} {error_rate:14.6g} {'':44} {attempted:3}  ratio")
    lines += [f"absent: {name} (a wrap point or count it needs is gone)" for name in absent]
    lines += [f"FAILED {f}" for f in failures]
    result = {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
              "failed": failed if attempted else 1, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "interarr" / "__init__.py").is_file():
        print(f"error: no interarr source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        raw = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    result, lines = summarize(args.workload, args.seed, args.trace, raw)
    prov = provenance()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "args": vars(args), "summary": lines,
                   "raw": raw, "result": result}, fh, indent=1)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
