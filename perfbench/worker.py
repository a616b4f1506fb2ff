"""One benchmark worker: a fresh single-threaded process for one workload.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS LAUNCHED

MODE is ``setup`` (make the inputs, report the set-up time, stop), ``timed``
(whole passes over the workload's ops until SECONDS have gone by, tracing
off) or ``traced`` (an untraced and a traced pass, twice).  LAUNCHED
is the parent's ``time.monotonic()`` just before it started this process;
set-up wall time runs from there until the inputs are ready.  The result is
one JSON object on the last line of standard output.

Times are taken as CPU time of this process and as wall time.  On a shared
virtual machine the hypervisor can take the core away from a running
process; that stolen time counts in wall time but not in CPU time.
Neighbours on the host also slow the core itself, by 10-40% over spans
shorter than a second, which CPU time does show.  So in timed passes a
Sampler runs a fixed reference loop of small numpy operations, much like
growthlab's own, for about a seventh of the CPU time, spread evenly over
the ops.  Each op's CPU time, without the reference loop's, is scaled to
nominal host speed: times REF_NOMINAL_S / (mean CPU time of a reference
chunk during the op, or around it for a short op).  Set-up time is scaled the same way by reference
chunks run right after set-up.  The reference loop uses no growthlab code
and no program state, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import sys

# thread pools must be sized before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run-time files of the benchmark: per-pass work directories and spans.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, SRC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

#: One reference chunk: this many rounds of small-vector numpy arithmetic.
REF_ITERATIONS = 100
REF_VECTORS = np.random.default_rng(0).uniform(0.1, 1.0, (64, 4))
#: CPU seconds one chunk takes at nominal speed: about its mean during the
#: ops of hold-sweep on the 2-core shared VM the bounds were set on (Python
#: 3.11, numpy 2.4).  Run back to back, without the ops, a chunk is faster.
REF_NOMINAL_S = 0.65e-3
#: CPU time between two reference chunks while the timed ops run.
SAMPLE_INTERVAL_S = 0.005
#: Least number of chunks an op's speed is read from.
REF_MIN_CHUNKS = 20
#: Reference chunks right after set-up, which takes about 0.2 s.
SETUP_REF_CHUNKS = 75


def reference_chunk() -> float:
    total = 0.0
    for k in range(REF_ITERATIONS):
        a, b = REF_VECTORS[k % 64], REF_VECTORS[k * 7 % 64]
        total += float(np.exp(np.log(a) @ b))
        total += float(np.maximum(a - b, 0.0).sum())
    return total


def reference(chunks: int) -> int:
    """Run reference chunks; return their CPU ns."""
    c0 = time.thread_time_ns()
    for _ in range(chunks):
        reference_chunk()
    return time.thread_time_ns() - c0


class Sampler:
    """While active, runs one reference chunk every SAMPLE_INTERVAL_S of CPU time.

    SIGPROF fires on the process's CPU time, so the chunks sample the host's
    speed evenly over the ops' own run time.  Python runs the handler between
    bytecodes of the main thread; it touches no program state.  An armed
    process-wide CPU timer makes the process CPU clock tick-grained, so all
    CPU times here come from the thread clock (the worker has one thread).
    """

    def __init__(self):
        self.chunks = 0
        self.ns = 0

    def _sample(self, signum, frame):
        self.ns += reference(1)
        self.chunks += 1

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def chunk_times(op_ref: list[tuple[int, int]]) -> list[float]:
    """Mean reference chunk time (ns) around each op, from (chunks, ns) per op.

    An op's own chunks are used if there are REF_MIN_CHUNKS of them;
    otherwise the ops next to it are added, nearest first, until there are.
    """
    means = []
    for i in range(len(op_ref)):
        lo = hi = i
        chunks, ns = op_ref[i]
        while chunks < REF_MIN_CHUNKS and (lo > 0 or hi < len(op_ref) - 1):
            for j in (lo - 1, hi + 1):
                if 0 <= j < len(op_ref):
                    chunks, ns = chunks + op_ref[j][0], ns + op_ref[j][1]
            lo, hi = max(lo - 1, 0), min(hi + 1, len(op_ref) - 1)
        means.append(ns / chunks if chunks else float("nan"))
    return means


def run_pass(workload, tracer=None, sample=False) -> dict:
    """Run every op once in a fresh directory, then check, count and delete it.

    With ``sample``, the reference loop samples the host's speed during the
    ops; its time is taken out of the ops' times.
    """
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    summaries, op_ns, op_cpu_ns, op_ref, errors = [], [], [], [], {}
    sampler = Sampler()
    home = os.getcwd()
    os.chdir(workdir)  # outputs are written with relative paths, so bytes do not depend on it
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                sampler if sample else contextlib.nullcontext():
            for i in range(workload.ops):
                if tracer is not None:
                    tracer.begin_op(i)
                chunks, ref_ns = sampler.chunks, sampler.ns
                t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
                try:
                    result = workload.run_op(i)
                except Exception as exc:  # one failing op must not end the run
                    result, errors[i] = None, f"{type(exc).__name__}: {exc}"
                cpu_ns, wall_ns = time.thread_time_ns() - c0, time.perf_counter_ns() - t0
                chunks, ref_ns = sampler.chunks - chunks, sampler.ns - ref_ns
                op_cpu_ns.append(cpu_ns - ref_ns)
                op_ns.append(wall_ns - ref_ns)
                op_ref.append((chunks, ref_ns))
                if tracer is not None:
                    tracer.end_op()
                summaries.append(None if i in errors else workload.summarize(i, result))
        os.chdir(home)
        failures = {**workload.check(summaries, workdir), **errors}
        files, size, rows, digest = scan(workdir)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    digest.update(repr(summaries).encode())
    ops_norm_ns = [cpu * REF_NOMINAL_S * 1e9 / chunk_ns
                   for cpu, chunk_ns in zip(op_cpu_ns, chunk_times(op_ref))] if sample else []
    return {
        "cpu_s": sum(op_cpu_ns) / 1e9,
        "ops_norm_ms": [ns / 1e6 for ns in ops_norm_ns],
        "ref_chunks": sampler.chunks,
        "ref_s": sampler.ns / 1e9,
        "wall_s": sum(op_ns) / 1e9,
        "ops_ms": [ns / 1e6 for ns in op_ns],
        "attempted": workload.ops,
        "failures": {str(i): reason for i, reason in sorted(failures.items())},
        "files": files,
        "bytes": size,
        "rows": rows,
        "fingerprint": digest.hexdigest(),
    }


def scan(workdir: str):
    """Files, bytes and CSV data rows under workdir, and a hash of every file."""
    files = size = rows = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(workdir):
        dirnames.sort()
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            files += 1
            size += len(data)
            if name.endswith(".csv"):
                rows += max(data.count(b"\n") - 1, 0)
            digest.update(os.path.relpath(path, workdir).encode() + b"\0")
            digest.update(hashlib.sha256(data).digest())
    return files, size, rows, digest


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, launched = argv
    seed, seconds, launched = int(seed), float(seconds), float(launched)

    import growthlab
    import workloads

    if os.path.dirname(os.path.abspath(growthlab.__file__)) != os.path.join(SRC, "growthlab"):
        print(f"growthlab was imported from {growthlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[name](seed)
    # CPU time since the process started: interpreter start, imports and inputs
    setup_s = time.process_time()
    setup_wall_s = time.monotonic() - launched
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "setup_ref_s": reference(SETUP_REF_CHUNKS) / 1e9 / SETUP_REF_CHUNKS,
              "ref_nominal_s": REF_NOMINAL_S, "python": sys.version.split()[0],
              "numpy": np.__version__}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    passes = []
    if mode == "timed":
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, sample=True))
    elif mode == "traced":
        from tracer import Tracer

        # untraced and traced passes alternate, so host speed drift hits both alike
        tracer = Tracer()
        traced = []
        for _ in range(2):
            passes.append(run_pass(workload))
            tracer.reset()
            tracer.install()
            traced.append(run_pass(workload, tracer))
            tracer.uninstall()
            values, exact = tracer.summary(workload.agent_steps, workload.evolve_agent_steps)
            traced[-1]["layers"] = values
            traced[-1]["exact"] = exact
            traced[-1]["unmeasured"] = tracer.unmeasured(values)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}.csv"))
        result["traced"] = traced
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["passes"] = passes
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
