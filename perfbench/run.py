"""growthlab benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the directory above this file, and
growthlab is imported from its ``src``, with nothing installed.  Each
workload runs in fresh single-threaded worker processes.  With ``--trace 0``
the report has the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  The exit code is 0
only if every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
#: set-up samples per timed run, the timed worker included
SETUP_SAMPLES = 9
#: a run must end within 180 s; workers get what is left of this
RUN_BUDGET_S = 170.0
WORKLOAD_NAMES = ("hold-sweep", "evolve-cli", "switch-sweep", "landscape-cli")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    launched = time.monotonic()
    timeout = deadline - launched
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, workload, str(seed), str(seconds), repr(launched)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            # one hash seed for every worker, so that set and dict layouts repeat
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker for {workload} did not finish in time")
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{mode} worker for {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def failures_of(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    reasons = [f"op {i}: {r}" for p in passes for i, r in p["failures"].items()]
    return attempted, failed, reasons


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics: value and sample description for each name.

    CPU times are scaled to nominal host speed, as the reference loop
    measured it (see worker.py): each op's time by the loop run during it,
    and a set-up by the loop run right after it.
    """
    workers = [run_worker("setup", workload, seed, seconds, deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker("timed", workload, seed, seconds, deadline)
    workers.append(res)
    nominal = res["ref_nominal_s"]
    setups = [w["setup_s"] * nominal / w["setup_ref_s"] for w in workers]
    passes = res["passes"]
    # each op has the same input in every pass: its median over passes
    op_medians = [statistics.median(times)
                  for times in zip(*(p["ops_norm_ms"] for p in passes))]
    metrics = {
        "norm_cpu_s": (statistics.median(sum(p["ops_norm_ms"]) / 1e3 for p in passes),
                       f"median of {len(passes)} passes"),
        "norm_op_p90_ms": (p90(op_medians), f"p90 of {len(op_medians)} ops' medians "
                           f"over {len(passes)} passes"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} worker starts"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "max RSS of the timed worker"),
    }
    ops_ms = [ms for p in passes for ms in p["ops_ms"]]
    chunks = sum(p["ref_chunks"] for p in passes)
    # unscaled times move with the host's load; shown, not reported
    raw = {
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s",
                  f"median of {len(passes)} passes"),
        "host_slowdown": (sum(p["ref_s"] for p in passes) / chunks / nominal, "",
                          f"mean of {chunks} reference chunks over nominal"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "op_p90_ms": (p90(ops_ms), "ms", f"p90 of {len(ops_ms)} ops"),
        "setup_wall_s": (statistics.median(w["setup_wall_s"] for w in workers), "s",
                         f"median of {len(workers)} worker starts"),
    }
    problems = []
    if len({p["fingerprint"] for p in passes}) != 1:
        problems.append("passes with the same seed wrote different outputs")
    return res, passes, metrics, raw, problems


def traced_run(workload: str, seed: int, seconds: float, deadline: float):
    """Per-layer metrics of the last traced pass, and the traced run's self-checks."""
    res = run_worker("traced", workload, seed, seconds, deadline)
    plain, traced = res["passes"], res["traced"]
    last = traced[-1]
    samples = f"{len(last['ops_ms'])} ops, second of 2 traced passes"
    metrics = {name: (value, samples) for name, value in last["layers"].items()
               if name not in last["unmeasured"]}
    metrics["experiments.rows"] = (last["rows"], "CSV data rows written")
    metrics["experiments.files"] = (last["files"], "files written")
    metrics["experiments.bytes"] = (last["bytes"], "bytes written")
    metrics["trace.overhead_s"] = (
        statistics.mean(p["cpu_s"] for p in traced) - statistics.mean(p["cpu_s"] for p in plain),
        "CPU time: mean of 2 traced passes minus mean of the 2 untraced passes between them")
    problems = []
    if len({p["fingerprint"] for p in plain + traced}) != 1:
        problems.append("traced and untraced passes wrote different outputs")
    if traced[0]["exact"] != traced[1]["exact"]:
        diff = sorted(k for k in set(traced[0]["exact"]) | set(traced[1]["exact"])
                      if traced[0]["exact"].get(k) != traced[1]["exact"].get(k))
        problems.append(f"exact counts differ between the two traced passes: {diff}")
    return res, plain + traced, metrics, problems, last["unmeasured"]


def report(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> bool:
    deadline = time.monotonic() + RUN_BUDGET_S
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unmeasured: list[str] = []
    raw: dict = {}
    if trace:
        res, passes, metrics, problems, unmeasured = traced_run(workload, seed, seconds, deadline)
    else:
        res, passes, metrics, raw, problems = timed_run(workload, seed, seconds, deadline)
    extra = set(metrics) - set(units)
    if extra:
        raise BenchmarkError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    attempted, failed, reasons = failures_of(passes)

    print(f"perfbench {workload}: seed={seed} seconds={seconds:g} trace={trace}")
    print(f"  machine: cores={os.cpu_count()} python={res['python']} "
          f"numpy={res['numpy']} commit={git_commit()}")
    for name in units:
        if name in metrics:
            value, samples = metrics[name]
            print(f"  {name:<38} {value:>14.6g} {units[name]:<6} {samples}")
    if trace:
        print("  wait time: not applicable, one thread runs one op at a time")
        for name in unmeasured:
            print(f"  {name:<38} {'unmeasured':>14} (a wrapped function is gone or changed)")
    else:
        print(f"  {'error_rate':<38} {failed / attempted:>14.6g} {'':<6} "
              f"{failed} of {attempted} ops failed")
        for name, (value, unit, samples) in raw.items():
            print(f"  {name:<38} {value:>14.6g} {unit:<6} {samples}; unscaled, not in the JSON line")
    for line in problems + reasons[:20]:
        print(f"  CHECK FAILED: {line}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}); confirm claims on the "
                        f"held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "growthlab", "__init__.py")):
        print(f"error: no growthlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        ok = [report(name, args.seed, seconds, args.trace, spec) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
