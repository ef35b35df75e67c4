"""chowtaut benchmark: time-to-verified-answer for four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dims,mck,oracle,adjudicate,all}
                         --seed N --seconds S --trace {0,1}

One process runs one workload as a closed loop with a single caller: the
tasks run back to back, every output is checked against bench/reference.json,
and rounds over all tasks repeat until S seconds have been measured and at
least three rounds have run.  The host-speed kernel of bench/hostspeed.py
runs between tasks; on the workloads of workloads.HOST_SCALED each task's
time is divided by the kernel's time around it and scaled by
hostspeed.REF_S.  wall_s is the sum over tasks of each task's median time
across the rounds; setup_s is scaled the same way on every workload.  The
raw times are in the context line.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
verified_share).  --trace 1 runs an untraced, a traced and another
untraced round, and reports the per-layer metrics of bench/tracing.py
plus the tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds context
that no bound applies to.  --workload all runs each workload in its own
process and ends with a combined line.

The exit code is 0 when every output was verified, 1 when one was wrong,
and 2 when the checkout has no chowtaut sources to measure.
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
from time import perf_counter

import hostspeed
import workloads as wl
from tracing import Tracer, layer_metrics

SETUP_PROBES = 7
# Host speed also changes within seconds.  With at least three rounds,
# each task's median discards one round slowed by such a spell.
MIN_ROUNDS = 3


def run_round(tasks, failures: list) -> tuple[list[float], list[float]]:
    """Run and check every task once.

    Returns each task's wall time, and the mean of the host-speed kernel's
    times just before and just after the task.
    """
    times, kernel = [], []
    before = hostspeed.kernel_s()
    for task in tasks:
        t0 = perf_counter()
        try:
            task.check(task.run())
        except Exception as exc:  # a wrong or crashing task is counted, not fatal
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        after = hostspeed.kernel_s()
        kernel.append((before + after) / 2)
        before = after
    return times, kernel


def scaled(times, kernel) -> list[float]:
    """Times in seconds of a host on which the kernel takes hostspeed.REF_S."""
    return [hostspeed.REF_S * t / k for t, k in zip(times, kernel)]


def probe_setup(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Set-up time of the workload in a fresh process, and the kernel's time there."""
    out = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "setup_probe.py"), workload, str(seed), size],
        capture_output=True, text=True, check=True, timeout=60)
    setup_s, kernel_s = out.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(kernel_s)


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((wl.SRC / "chowtaut").glob("*.py")))


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "src.lines": source_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            ref: dict | None = None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result object (plus a "context" key)."""
    if ref is None:
        ref = wl.load_reference()
    lib, tasks = wl.setup(workload, seed, size, ref)
    ctx = context(workload, seed)
    ctx["tasks"] = [t.name for t in tasks]

    def task_times(times, kernel):
        return scaled(times, kernel) if workload in wl.HOST_SCALED else times

    failures: list[str] = []
    if trace:
        # The traced round sits between two untraced ones.  Per-layer self
        # times are raw; the overhead is taken from the rounds' task times.
        before = sum(task_times(*run_round(tasks, failures)))
        tracer = Tracer()
        with tracer.installed(lib):
            traced = sum(task_times(*run_round(tasks, failures)))
        after = sum(task_times(*run_round(tasks, failures)))
        untraced = (before + after) / 2
        rounds = [before, traced, after]
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        ctx.update(untraced_wall_s=[before, after], traced_wall_s=traced)
    else:
        probed = [probe_setup(workload, seed, size) for _ in range(probes)]
        setup_s = scaled(*zip(*probed))
        raw, kernel = [], []
        start = perf_counter()
        while len(raw) < MIN_ROUNDS or perf_counter() - start < seconds:
            times, kernel_s = run_round(tasks, failures)
            raw.append(times)
            kernel.append(kernel_s)
        rounds = [task_times(t, k) for t, k in zip(raw, kernel)]
        # Each task's median over the rounds, summed: with few long rounds
        # this uses every round rather than the single middle one.
        task_s = [statistics.median(times) for times in zip(*rounds)]
        ctx.update(raw_wall_s=sum(statistics.median(t) for t in zip(*raw)),
                   raw_round_s=[sum(t) for t in raw], task_median_s=task_s,
                   kernel_median_s=statistics.median(k for ks in kernel for k in ks),
                   raw_setup_s=[s for s, _ in probed], setup_samples_s=setup_s)
    attempted = len(tasks) * len(rounds)
    failed = len(failures)
    ctx["fail_share"] = failed / attempted
    ctx["failures"] = failures[:10]
    if not trace:
        metrics = {
            "wall_s": {"value": sum(task_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
            "verified_share": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "context": ctx}


def print_result(result: dict) -> None:
    ctx = result.pop("context")
    for name, m in result["metrics"].items():
        print(f"{ctx['workload']}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{ctx['workload']}: fail_share = {ctx['fail_share']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} tasks)")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))


def run_all(args) -> int:
    """Run every workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode == 2:
            return 2
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "chowtaut" / "__init__.py").is_file():
        print(f"error: no chowtaut sources under {wl.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
