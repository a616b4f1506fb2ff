"""Check that a change keeps the bytes of every pinned and benchmark output.

    python3 tools/same_bytes.py PARENT_SHA

Run from anywhere inside the git checkout.  The parent tree (PARENT_SHA)
and the change tree (the working tree's tracked files) are extracted as
tools/bench_pair.py extracts them.  In each tree one Python process, with
PYTHONPATH=src and GROWTHLAB_SEED unset, writes:

- every ``tests/data/<name>.json`` run through ``cli_main`` as
  tests/test_pinned_outputs.py runs it, into ``data/``;
- the ops of perfbench's evolve-cli, switch-sweep and landscape-cli
  workloads at seeds 1 and 20261017, each workload and seed in its own
  directory ``<workload>/<seed>/``;
- the records of every hold-sweep op at both seeds, pickled (protocol 4,
  as perfbench digests them), as ``hold-sweep/<seed>/<op>.pkl``.

Each directory of CLI runs also gets ``exit_codes.txt``, one line per run.
perfbench/ is read, not edited.  Then every file of the two sides is
compared by sha256.  The output bits depend on numpy's SIMD dispatch, so
both trees are written twice: on the default dispatch, and in a child with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", which on x86-64
takes the X86_V3 target (``exp`` as libm's).  For each run, the dispatch
it had (tools/bench_pair.py's ``exp_dispatch`` probe), the counts, and each
path that differs or is on one side only go to standard output; then one
verdict line per run.  The exit code is 0 only if both runs hold the same
paths with the same bytes on both sides.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 20261017)
CLI_WORKLOADS = ("evolve-cli", "switch-sweep", "landscape-cli")
#: a run document's experiment -> its subcommand
COMMANDS = {"switch": "converge", "evolve": "evolve", "landscape": "landscape"}
#: each run's name -> what it sets in the children's environment
DISPATCHES = {"default": {},
              "X86_V3": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}}
#: the child process: write_outputs in the tree that is its working directory
CHILD = (f"import sys; sys.path.insert(0, {HERE!r}); import same_bytes; "
         "same_bytes.write_outputs(sys.argv[1])")


def write_outputs(out: str) -> None:
    """Write every output of the tree that is the working directory under ``out``."""
    tree = os.getcwd()
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import pickle

    import growthlab
    import workloads
    from growthlab.cli import cli_main

    if not growthlab.__file__.startswith(os.path.join(tree, "src") + os.sep):
        raise SystemExit(f"growthlab was imported from {growthlab.__file__}, not {tree}")

    def run_cli(directory: str, argvs: list[list[str]]) -> None:
        os.makedirs(directory)
        os.chdir(directory)  # the runs' relative outputs land here
        codes = [cli_main(argv) for argv in argvs]
        with open("exit_codes.txt", "w", encoding="utf-8") as fh:
            fh.write("".join(f"{code}\n" for code in codes))

    argvs = []
    for config in sorted(glob.glob(os.path.join(tree, "tests", "data", "*.json"))):
        with open(config, encoding="utf-8") as fh:
            command = COMMANDS[json.load(fh)["experiment"]]
        name = os.path.splitext(os.path.basename(config))[0]
        argvs.append([command, "--config", config, "--output", f"{name}.csv"])
    run_cli(os.path.join(out, "data"), argvs)
    for seed in SEEDS:
        for name in CLI_WORKLOADS:
            run_cli(os.path.join(out, name, str(seed)), workloads.WORKLOADS[name](seed).argvs)
        sweep = workloads.HoldSweep(seed)
        os.makedirs(os.path.join(out, "hold-sweep", str(seed)))
        for i in range(sweep.ops):
            with open(os.path.join(out, "hold-sweep", str(seed), f"{i}.pkl"), "wb") as fh:
                pickle.dump(sweep.run_op(i), fh, protocol=4)


def digests(root: str) -> dict[str, str]:
    """The sha256 of every file under ``root``, by its path relative to ``root``."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def compare(parent: str, change: str) -> dict[str, list[str]]:
    """The relative paths of the files under the two roots, sorted, by
    verdict: "same", "differ", "only in parent" and "only in change"."""
    a, b = digests(parent), digests(change)
    paths = sorted(a.keys() | b.keys())
    return {
        "same": [p for p in paths if p in a and p in b and a[p] == b[p]],
        "differ": [p for p in paths if p in a and p in b and a[p] != b[p]],
        "only in parent": [p for p in paths if p not in b],
        "only in change": [p for p in paths if p not in a],
    }


def report(verdicts: dict[str, list[str]]) -> int:
    """Print the counts and every path that is not the same; 0 if none."""
    total = sum(map(len, verdicts.values()))
    print(f"{total} files: " + ", ".join(f"{len(v)} {k}" for k, v in verdicts.items()))
    for verdict, paths in verdicts.items():
        for path in paths if verdict != "same" else ():
            print(f"{verdict}: {path}")
    return 0 if len(verdicts["same"]) == total else 1


def summary(runs: dict[str, tuple[dict, dict[str, list[str]]]]) -> int:
    """Print one verdict line per dispatch run, from its ``exp_dispatch``
    probe and verdicts; 0 only if every run's files are all the same."""
    code, libm = 0, False  # libm: the run before already had libm's exp
    for name, (probe, verdicts) in runs.items():
        same = len(verdicts["same"]) == sum(map(len, verdicts.values()))
        print(f"{name} dispatch ({probe['differ']} exp probe values off libm): "
              + ("all same" if same else "NOT all same")
              + ("; the run before had libm's exp too, so the same target" if libm else ""))
        code, libm = code | (not same), probe["libm"]
    return code


def main(argv=None) -> int:
    import bench_pair

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_sha")
    args = parser.parse_args(argv)

    repo = bench_pair.git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    sha = bench_pair.git("rev-parse", "--short", args.parent_sha, cwd=repo).decode().strip()
    base = {k: v for k, v in os.environ.items()
            if k not in ("GROWTHLAB_SEED", *DISPATCHES["X86_V3"])}
    runs = {}
    print(f"parent {sha} against the working tree")
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as scratch:
        trees = bench_pair.make_trees(repo, sha, scratch)
        for name, extra in DISPATCHES.items():
            env = {**base, **extra, "PYTHONPATH": "src"}
            outs = {side: os.path.join(scratch, "out", name, side) for side in trees}
            for side, tree in trees.items():
                proc = subprocess.run((sys.executable, "-c", CHILD, outs[side]), cwd=tree,
                                      env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"writing the {side} outputs ({name}) exited "
                                     f"{proc.returncode}:\n{proc.stderr[-2000:]}")
            probe = bench_pair.exp_dispatch(env)
            print(f"{name} dispatch: {probe['probe']} at {probe['differ']} values "
                  f"(libm {probe['libm']})")
            verdicts = compare(outs["parent"], outs["change"])
            report(verdicts)
            runs[name] = probe, verdicts
    return summary(runs)


if __name__ == "__main__":
    sys.exit(main())
