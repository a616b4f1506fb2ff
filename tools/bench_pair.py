"""Benchmark a change against its parent commit and write BENCH_<pr>.json.

    python3 tools/bench_pair.py PARENT_SHA PR [--pairs N] [--seed N]
                                [--workload NAME ...] [--description TEXT]
                                [--output PATH]

Run from anywhere inside the git checkout.  Both trees are extracted the
same way, by ``git archive`` of a commit object into a fresh temporary
directory: the parent's is PARENT_SHA, and the change's is a commit of the
working tree's tracked files made by ``git stash create`` (HEAD when the
tree is clean), which moves no ref.  Neither tree has a .git directory, so
both machine lines read commit=unknown.  Each tree runs its own,
unmodified ``perfbench/run.py``.  Building both sides alike keeps one
build method; it is not known to cause or cure the position effect below.

Layout: N pairs per workload, the workloads in turn within a pair; odd
pairs run the parent first, even pairs the change first.  Then three
``--trace 1`` passes per side and workload, alternating in the same way.
The output has the keys description, command, order, machine, src_size,
medians, layers and runs; ``machine`` also holds under "exp_dispatch" the
count of ``exp_dispatch``'s probe, since numpy's SIMD dispatch moves output
bits and kernel timings; ``src_size`` holds each side's tools/src_size.py
table (lines and statements per module and in total), whose totals are
printed first;
``medians`` holds each side's median of every end-to-end metric and its
total of failed ops, and under "gain" whether each metric meets the gain rule: the change
lower in at least 9 of 10 pairs, ties counting for neither, and the median
gap wider than the parent's interquartile distance.  Under "position" it
holds each side's medians of each metric over the runs it made first and
second in its pair, and flags the side as "split" when the two sets of runs
do not overlap (every run at one position slower than every run at the
other), since a position effect then widens the quartiles the gain rule
reads.  Each run's entry also keeps, under "unscaled", the report's
``cpu_s`` and ``host_slowdown`` ("unscaled, not in the JSON line"), and
"position" holds their medians by position too, so a split can be set
against what the host did.  A summary (medians, quartiles, pair wins, the
rule and the position medians) goes to standard output.  ``layers`` holds,
per workload, each trace metric's parent and change medians over the trace
passes, and under "flagged" the metrics whose medians moved the wrong way
(by the ``better`` of BENCHMARK.json's ``per_layer``) by more than 10% of a
positive parent value; they are printed too.  For each flagged metric,
"ranges" holds each side's [min, max] over its passes, and "overlapping"
names the metrics whose two ranges overlap; their printed line says "pass
ranges overlap".  One trace pass per side cannot resolve 10%: the same
tree's switch-sweep ``dynamics.us_per_agent_step`` has read anywhere from
4.3 to 10.3 us.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def git(*args: str, cwd: str) -> bytes:
    return subprocess.run(("git", *args), cwd=cwd, check=True, capture_output=True).stdout


def make_trees(repo: str, parent_sha: str, scratch: str) -> dict[str, str]:
    """The parent and change trees under ``scratch``, by side."""
    change_sha = git("stash", "create", cwd=repo).decode().strip() or "HEAD"
    trees = {}
    for side, sha in (("parent", parent_sha), ("change", change_sha)):
        trees[side] = os.path.join(scratch, side)
        os.makedirs(trees[side])
        archive = git("archive", sha, cwd=repo)
        subprocess.run(("tar", "-x", "-C", trees[side]), input=archive, check=True)
    return trees


def src_sizes(tree: str) -> dict:
    """tools/src_size.py's table of the tree's package: lines and statements
    per module and in total."""
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    import src_size

    found = src_size.sizes(os.path.join(tree, src_size.PACKAGE))
    lines, statements = map(sum, zip(*found.values()))
    return {"modules": {name: {"lines": n, "statements": k} for name, (n, k) in found.items()},
            "total": {"lines": lines, "statements": statements}}


UNSCALED = ("cpu_s", "host_slowdown")  # of the report's unscaled lines
TRACE_PASSES = 3  # per side and workload; ``layers`` reads their medians


def run_once(tree: str, workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    """``parse_report`` of one run.py call."""
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)),
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"run.py {workload} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return parse_report(lines)


def parse_report(lines: list[str]) -> tuple[dict, dict, str]:
    """A run.py report's last line, its JSON result; the values of its
    UNSCALED lines by name (none in a trace pass); and its machine line."""
    machine = next(line.strip() for line in lines if line.strip().startswith("machine:"))
    unscaled = {}
    for line in lines:
        name, value = (line.split() + ["", ""])[:2]
        if name in UNSCALED and line.endswith("; unscaled, not in the JSON line"):
            unscaled[name] = float(value)
    return json.loads(lines[-1]), unscaled, machine


def parse_machine(line: str) -> dict:
    fields = dict(item.split("=", 1) for item in line.split()[1:])
    return {"cores": int(fields["cores"]), "python": fields["python"],
            "numpy": fields["numpy"], "line": line}


#: counts the points of a fixed vector where numpy's exp and libm's differ
EXP_PROBE = ("import math, numpy as np; x = np.linspace(-50, 50, 1001); "
             "print(sum(a != math.exp(v) for a, v in zip(np.exp(x).tolist(), x.tolist())))")


def exp_dispatch(env: dict | None = None) -> dict:
    """Which ``exp`` numpy dispatches to in a child of this interpreter and
    environment (``env``, else this one's), as the runs see it, told apart by
    public calls: on x86-64 with numpy 2.4.6, 51 of the probe's 1001 values
    differ from ``math.exp`` under the AVX-512 dispatch and none with it
    disabled (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")."""
    out = subprocess.run((sys.executable, "-c", EXP_PROBE), capture_output=True,
                         text=True, check=True, env=env).stdout
    differ = int(out)
    return {"probe": "np.exp != math.exp on np.linspace(-50, 50, 1001)",
            "differ": differ, "libm": differ == 0}


def gain_holds(parent: list[float], change: list[float]) -> bool:
    """The gain rule for a lower-is-better metric measured in pairs: the
    change is lower in at least nine tenths of all pairs, ties counting for
    neither, and its median is lower than the parent's by more than the
    distance between the parent's quartiles."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    gap = statistics.median(parent) - statistics.median(change)
    return 10 * wins >= 9 * len(parent) and gap > q3 - q1


def by_position(side_runs: list[dict], values: list[float]) -> dict:
    """The medians of ``values`` over the runs made first and second in their
    pair (None where there are none), and whether the two sets split: every
    value at one position above every value at the other.  With 5 runs at
    each position and no position effect, a split has chance 2 in 252."""
    # odd pairs run the parent first, even pairs the change first
    led = [(r["pass"] % 2 == 1) == (r["side"] == "parent") for r in side_runs]
    at = {pos: [v for ran_first, v in zip(led, values) if ran_first == (pos == "first")]
          for pos in ("first", "second")}
    first, second = at.values()
    split = bool(first and second) and (max(first) < min(second) or max(second) < min(first))
    return {**{pos: round(statistics.median(v), 4) if v else None for pos, v in at.items()},
            "split": split}


def summarize(runs: list[dict], workloads, pairs: int) -> dict:
    """Per workload and side: the median of each end-to-end metric, and the
    total of failed ops; per workload under "gain", whether each metric meets
    the gain rule, and under "position", each side's medians by position in
    the pair, also of the UNSCALED values that every timed run holds.
    Prints quartiles, pair wins, the rule and the position medians as it
    goes."""
    medians = {}
    for w in workloads:
        timed = {side: [r for r in runs if r["workload"] == w and r["side"] == side
                        and r["pass"] != "trace"] for side in ("parent", "change")}
        medians[w] = {}
        values = {}  # per side, each metric's values over its timed runs
        for side, side_runs in timed.items():
            values[side] = {name: [r["result"]["metrics"][name]["value"] for r in side_runs]
                            for name in side_runs[0]["result"]["metrics"]}
            medians[w][side] = {name: round(statistics.median(v), 4)
                                for name, v in values[side].items()}
            medians[w][side]["failed"] = sum(r["result"]["failed"] for r in side_runs)
        medians[w]["gain"] = {}
        medians[w]["position"] = {side: {} for side in timed}
        for name in values["parent"]:
            by_side = {side: values[side][name] for side in timed}
            quartiles = {side: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                         for side, v in by_side.items()}
            wins = sum(c < p for p, c in zip(by_side["parent"], by_side["change"]))
            gain = medians[w]["gain"][name] = gain_holds(by_side["parent"], by_side["change"])
            print(f"{w:<14} {name:<15} parent {medians[w]['parent'][name]:>10.4f} "
                  f"[{quartiles['parent'][0]:.4f}, {quartiles['parent'][2]:.4f}]  "
                  f"change {medians[w]['change'][name]:>10.4f} "
                  f"[{quartiles['change'][0]:.4f}, {quartiles['change'][2]:.4f}]  "
                  f"change lower in {wins}/{pairs} pairs; gain rule "
                  f"{'holds' if gain else 'does not hold'}")
            line = positions(timed, by_side, medians[w]["position"], name)
            print(f"{'':<14} {'':<15} by position in the pair: {line}")
        for name in UNSCALED:
            if all(name in r.get("unscaled", {}) for rs in timed.values() for r in rs):
                by_side = {side: [r["unscaled"][name] for r in rs] for side, rs in timed.items()}
                line = positions(timed, by_side, medians[w]["position"], name)
                print(f"{w:<14} {name:<15} unscaled, by position in the pair: {line}")
    return medians


def positions(timed: dict, by_side: dict, into: dict, name: str) -> str:
    """Each side's ``by_position`` of its values, stored at into[side][name],
    and the summary's text of them."""
    line = []
    for side, side_runs in timed.items():
        pos = into[side][name] = by_position(side_runs, by_side[side])
        line.append(f"{side} first {pos['first']} second {pos['second']}"
                    + (" (split)" if pos["split"] else ""))
    return "; ".join(line)


def layers(runs: list[dict], workloads, better: dict[str, str]) -> dict:
    """Per workload, each trace metric's parent and change medians over the
    trace passes, and the names whose change median moved the wrong way by
    more than 10% of the parent's; a parent median <= 0
    (``trace.overhead_s`` can be negative) flags nothing.  For each flagged
    name, "ranges" holds each side's [min, max] over its passes, and
    "overlapping" lists the names whose two ranges overlap: a move that
    one side's passes also span may be noise.  Prints the flagged names
    with their ranges."""
    out = {}
    for w in workloads:
        trace = {side: [r["result"]["metrics"] for r in runs if r["workload"] == w
                        and r["pass"] == "trace" and r["side"] == side]
                 for side in ("parent", "change")}
        passes = {name: {side: [m[name]["value"] for m in side_passes]
                         for side, side_passes in trace.items()}
                  for name in trace["parent"][0]}
        values = {name: {side: statistics.median(v) for side, v in sides.items()}
                  for name, sides in passes.items()}
        flagged, ranges, overlapping = [], {}, []
        for name, v in values.items():
            if name in better and v["parent"] > 0:
                moved = (v["change"] - v["parent"]) / v["parent"]
                if (moved > 0.1) if better[name] == "lower" else (moved < -0.1):
                    flagged.append(name)
                    ranges[name] = {side: [min(p), max(p)] for side, p in passes[name].items()}
                    (p_lo, p_hi), (c_lo, c_hi) = ranges[name].values()
                    overlap = p_lo <= c_hi and c_lo <= p_hi
                    if overlap:
                        overlapping.append(name)
                    print(f"{w:<14} {name:<36} parent {v['parent']:.6g}  change "
                          f"{v['change']:.6g}  {moved:+.1%}, {better[name]} is better; "
                          f"passes [{p_lo:.6g}, {p_hi:.6g}] and [{c_lo:.6g}, {c_hi:.6g}]"
                          + (", pass ranges overlap" if overlap else ""))
        out[w] = {"metrics": values, "flagged": flagged, "ranges": ranges,
                  "overlapping": overlapping}
    return out


def at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_sha")
    parser.add_argument("pr", help="the number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=at_least_one, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="may repeat (default: every workload of BENCHMARK.json)")
    parser.add_argument("--description", help="what the change is")
    parser.add_argument("--output", help="default: BENCH_<pr>.json at the checkout's root")
    args = parser.parse_args(argv)

    repo = git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    workloads = tuple(args.workload or declared)
    sha = git("rev-parse", "--short", args.parent_sha, cwd=repo).decode().strip()
    output = args.output or os.path.join(repo, f"BENCH_{args.pr}.json")
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as scratch:
        trees = make_trees(repo, sha, scratch)
        sizes = {side: src_sizes(tree) for side, tree in trees.items()}
        for side, size in sizes.items():
            print(f"src/growthlab {side}: {size['total']['lines']} lines, "
                  f"{size['total']['statements']} statements")
        schedule = [(("parent", "change") if k % 2 else ("change", "parent"), w, k)
                    for k in range(1, args.pairs + 1) for w in workloads]
        schedule += [(("parent", "change") if k % 2 else ("change", "parent"), w, "trace")
                     for k in range(1, TRACE_PASSES + 1) for w in workloads]
        for sides, w, k in schedule:
            for side in sides:
                result, unscaled, machine = run_once(trees[side], w, args.seed,
                                                     int(k == "trace"))
                runs.append({"side": side, "workload": w, "pass": k, "result": result,
                             "unscaled": unscaled})
                print(f"{side:<6} {w:<14} pass {k}: correct={result['correct']}",
                      file=sys.stderr, flush=True)

    doc = {
        "description": (f"perfbench/run.py results for {args.description or 'the change'}, "
                        f"against its parent commit {sha}"),
        "command": f"python3 perfbench/run.py --workload W --trace T --seed {args.seed}",
        "order": (f"{args.pairs} pairs per workload, workloads in turn "
                  f"({', '.join(workloads)}); odd pairs run the parent first, even "
                  f"pairs the change first; then {TRACE_PASSES} --trace 1 passes per "
                  "side and workload, alternating alike, whose medians make "
                  "layers. Both sides ran from a git archive of a "
                  f"commit: the parent side of {sha}, the change side of a commit of "
                  "the working tree's tracked files (git stash create, or HEAD when "
                  "clean); neither has a .git directory, so their machine lines read "
                  "commit=unknown. Written by tools/bench_pair.py"),
        "machine": {**parse_machine(machine), "exp_dispatch": exp_dispatch()},
        "src_size": sizes,
        "medians": summarize(runs, workloads, args.pairs),
        "layers": layers(runs, workloads, better),
        "runs": runs,
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
