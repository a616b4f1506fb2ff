"""Print the size of src/growthlab/: lines and statements, per module and in total.

    python3 tools/src_size.py [REV]

Run from anywhere inside the git checkout.  The tree is extracted as
tools/same_bytes.py extracts its two: REV's files by ``git archive``, or,
without REV, the working tree's tracked files (``git stash create``, HEAD
when the tree is clean; an untracked module counts once it is added).
Lines are newline characters, as ``wc -l`` counts them; statements are the
``ast.stmt`` nodes of each module's syntax tree, compound statements and
the statements nested in them each counting once.  So joining two
statements on one line lowers the line count but not the statement count.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join("src", "growthlab")


def sizes(package: str) -> dict[str, tuple[int, int]]:
    """(lines, statements) of each ``.py`` file directly under ``package``, by name."""
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
            found[name] = text.count("\n"), stmts
    return found


def report(found: dict[str, tuple[int, int]]) -> None:
    """Print one row per module, then the total."""
    rows = [*found.items(), ("total", tuple(map(sum, zip(*found.values()))))]
    width = max(len(name) for name in ("module", *found))
    print(f"{'module':<{width}}  {'lines':>6}  {'statements':>10}")
    for name, (lines, stmts) in rows:
        print(f"{name:<{width}}  {lines:>6}  {stmts:>10}")


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import bench_pair

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="a git revision (default: the working tree)")
    args = parser.parse_args(argv)

    repo = bench_pair.git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    with tempfile.TemporaryDirectory(prefix="src_size_") as scratch:
        trees = bench_pair.make_trees(repo, args.rev or "HEAD", scratch)
        if args.rev:
            sha = bench_pair.git("rev-parse", "--short", args.rev, cwd=repo).decode().strip()
            print(f"{PACKAGE} at {sha}")
        else:
            print(f"{PACKAGE} in the working tree")
        report(sizes(os.path.join(trees["parent" if args.rev else "change"], PACKAGE)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
