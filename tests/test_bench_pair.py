"""tools/bench_pair.py: its argument checks, which run before any git call
or benchmark run, its summary, and the two trees it extracts."""

import importlib.util
import json
import math
import os
import statistics
import subprocess

import numpy as np
import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pair.py")


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_usage_error(pairs, monkeypatch, capsys):
    bench_pair = load_bench_pair()

    def no_call(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    for name in ("git", "make_trees", "run_once"):
        monkeypatch.setattr(bench_pair, name, no_call)
    with pytest.raises(SystemExit) as exit_info:
        bench_pair.main(["8540a69", "12", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert f"--pairs: must be at least 1, got {pairs}" in capsys.readouterr().err


def _runs(parent, change):
    """Timed runs of one workload in bench_pair's layout, one metric."""
    return [{"side": side, "workload": "w", "pass": k + 1,
             "result": {"metrics": {"norm_cpu_s": {"value": v}}, "failed": 0}}
            for side, values in (("parent", parent), ("change", change))
            for k, v in enumerate(values)]


PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.175, 1.725


@pytest.mark.parametrize("change, holds", [
    ([v - 1.0 for v in PARENT], True),  # lower in 10/10, gap 1.0
    ([v - 1.0 for v in PARENT[:8]] + PARENT[8:], False),  # gap 1.0, lower in 8/10
    ([v - 0.3 for v in PARENT], False),  # lower in 10/10, gap 0.3 < IQR 0.55
    ([v - 1.0 for v in PARENT[:9]] + [1.9], True),  # a tie counts for neither: 9/10
], ids=["meets", "eight-of-ten", "inside-iqr", "nine-and-a-tie"])
def test_summary_states_the_gain_rule(change, holds, capsys):
    bench_pair = load_bench_pair()
    medians = bench_pair.summarize(_runs(PARENT, change), ["w"], len(PARENT))
    assert medians["w"]["gain"] == {"norm_cpu_s": holds}
    assert ("gain rule holds" if holds else "gain rule does not hold") in capsys.readouterr().out


@pytest.mark.parametrize("parent, split", [
    # the five pairs the parent ran first all beat the five it ran second
    ([0.65, 0.79, 0.66, 0.73, 0.65, 0.81, 0.66, 0.78, 0.65, 0.80], True),
    (PARENT, False),  # odd and even pairs interleave: 1.0, 1.2, ... and 1.1, 1.3, ...
], ids=["split", "interleaved"])
def test_summary_states_the_position_medians(parent, split, capsys):
    bench_pair = load_bench_pair()
    medians = bench_pair.summarize(_runs(parent, PARENT), ["w"], len(parent))
    position = medians["w"]["position"]
    first, second = parent[0::2], parent[1::2]  # odd pairs run the parent first
    assert position["parent"]["norm_cpu_s"] == {
        "first": round(statistics.median(first), 4),
        "second": round(statistics.median(second), 4),
        "split": split,
    }
    # the change ran first in the even pairs
    assert position["change"]["norm_cpu_s"] == {"first": 1.5, "second": 1.4, "split": False}
    out = capsys.readouterr().out
    assert "by position in the pair: parent first " in out
    assert ("(split)" in out) == split


# a timed run.py report, as it prints one
REPORT = """\
perfbench landscape-cli: seed=1 seconds=2 trace=0
  machine: cores=2 python=3.11.7 numpy=2.4.6 commit=unknown
  norm_cpu_s                                  0.0834186 s      median of 12 passes
  norm_op_p90_ms                                83.4186 ms     p90 of 1 ops' medians over 12 passes
  setup_s                                      0.195148 s      median of 9 worker starts
  peak_rss_mb                                   40.9062 MB     max RSS of the timed worker
  error_rate                                          0        0 of 12 ops failed
  cpu_s                                       0.0943494 s      median of 12 passes; unscaled, not in the JSON line
  host_slowdown                                 1.17603        mean of 263 reference chunks over nominal; unscaled, not in the JSON line
  wall_s                                      0.0952864 s      median of 12 passes; unscaled, not in the JSON line
  op_p90_ms                                     117.218 ms     p90 of 12 ops; unscaled, not in the JSON line
  setup_wall_s                                   0.2083 s      median of 9 worker starts; unscaled, not in the JSON line
{"correct": true, "attempted": 12, "failed": 0, "metrics": {"norm_cpu_s": {"value": 0.0834185773369514, "unit": "s"}}}
"""


def test_report_parse_keeps_the_unscaled_cpu_and_host_slowdown():
    bench_pair = load_bench_pair()
    result, unscaled, machine = bench_pair.parse_report(REPORT.strip().splitlines())
    assert result["metrics"]["norm_cpu_s"]["value"] == 0.0834185773369514
    assert unscaled == {"cpu_s": 0.0943494, "host_slowdown": 1.17603}
    assert machine == "machine: cores=2 python=3.11.7 numpy=2.4.6 commit=unknown"
    # a trace pass prints no unscaled lines
    trace = [line for line in REPORT.strip().splitlines() if "unscaled" not in line]
    assert bench_pair.parse_report(trace)[1] == {}


def test_summary_states_the_unscaled_position_medians(capsys):
    bench_pair = load_bench_pair()
    runs = _runs(PARENT, PARENT)
    for r in runs:
        value = r["result"]["metrics"]["norm_cpu_s"]["value"]
        r["unscaled"] = {"cpu_s": 2 * value, "host_slowdown": value / 10}
    position = bench_pair.summarize(runs, ["w"], len(PARENT))["w"]["position"]
    assert position["parent"]["cpu_s"] == {"first": 2.8, "second": 3.0, "split": False}
    assert position["change"]["host_slowdown"] == {"first": 0.15, "second": 0.14,
                                                   "split": False}
    out = capsys.readouterr().out
    assert "cpu_s           unscaled, by position in the pair: parent first 2.8" in out


def _git(repo, *args):
    return subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@t", *args),
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_change_tree_is_the_working_tree(tmp_path):
    bench_pair = load_bench_pair()
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for name in ("kept", "modified", "deleted"):
        (repo / name).write_text(f"{name}\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "modified").write_text("changed\n")
    (repo / "deleted").unlink()
    (repo / "untracked").write_text("untracked\n")
    status = _git(repo, "status", "--porcelain")

    trees = bench_pair.make_trees(str(repo), "HEAD", str(tmp_path / "scratch"))
    assert sorted(os.listdir(trees["parent"])) == ["deleted", "kept", "modified"]
    assert (tmp_path / "scratch" / "parent" / "modified").read_text() == "modified\n"
    assert sorted(os.listdir(trees["change"])) == ["kept", "modified"]
    assert (tmp_path / "scratch" / "change" / "modified").read_text() == "changed\n"
    # no ref moved, and the working tree and index read as before
    assert _git(repo, "stash", "list") == ""
    assert _git(repo, "status", "--porcelain") == status


def test_clean_change_tree_is_head(tmp_path):
    bench_pair = load_bench_pair()
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "file").write_text("committed\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    trees = bench_pair.make_trees(str(repo), "HEAD", str(tmp_path / "scratch"))
    assert os.listdir(trees["change"]) == ["file"]
    assert (tmp_path / "scratch" / "change" / "file").read_text() == "committed\n"


def test_layers_flag_the_metrics_that_moved_the_wrong_way(capsys):
    bench_pair = load_bench_pair()
    better = {"a.s": "lower", "b.count": "higher", "c.s": "lower", "d.s": "lower",
              "trace.overhead_s": "lower", "e.count": "higher", "f.s": "lower"}
    parent = {"a.s": 1.0, "b.count": 100, "c.s": 1.0, "d.s": 0.0, "trace.overhead_s": -0.1,
              "e.count": 10, "f.s": 2.0, "undeclared": 1.0}
    change = {"a.s": 1.2, "b.count": 80, "c.s": 1.05, "d.s": 0.5, "trace.overhead_s": 0.3,
              "e.count": 20, "f.s": 1.0, "undeclared": 5.0}
    timed = _runs([9.0], [1.0])  # not a trace pass: ignored
    trace = [{"side": side, "workload": "w", "pass": "trace",
              "result": {"metrics": {n: {"value": v} for n, v in values.items()}, "failed": 0}}
             for side, values in (("parent", parent), ("change", change))]
    got = bench_pair.layers(timed + trace, ["w"], better)
    assert got["w"]["metrics"]["a.s"] == {"parent": 1.0, "change": 1.2}
    assert got["w"]["metrics"]["undeclared"] == {"parent": 1.0, "change": 5.0}
    # a.s +20% and b.count -20%; c.s +5% is within 10%, d.s and trace.overhead_s
    # have no positive parent value, e.count and f.s moved the right way
    assert got["w"]["flagged"] == ["a.s", "b.count"]
    out = capsys.readouterr().out
    assert "a.s" in out and "b.count" in out and "c.s" not in out


def _trace(side, passes):
    """Trace runs of workload "w", one per dict of metric values."""
    return [{"side": side, "workload": "w", "pass": "trace",
             "result": {"metrics": {n: {"value": v} for n, v in values.items()}, "failed": 0}}
            for values in passes]


def test_layers_take_the_median_of_the_trace_passes(capsys):
    bench_pair = load_bench_pair()
    better = {"a.s": "lower", "b.s": "lower", "c.count": "higher"}
    # one slow pass of a.s and one low count flag nothing; b.s moved in two of three
    parent = [{"a.s": 1.0, "b.s": 1.0, "c.count": 100},
              {"a.s": 1.1, "b.s": 1.1, "c.count": 100},
              {"a.s": 0.9, "b.s": 0.9, "c.count": 100}]
    change = [{"a.s": 2.0, "b.s": 1.3, "c.count": 50},
              {"a.s": 1.0, "b.s": 1.4, "c.count": 100},
              {"a.s": 1.05, "b.s": 0.9, "c.count": 100}]
    got = bench_pair.layers(_trace("parent", parent) + _trace("change", change), ["w"], better)
    assert got["w"]["metrics"] == {"a.s": {"parent": 1.0, "change": 1.05},
                                   "b.s": {"parent": 1.0, "change": 1.3},
                                   "c.count": {"parent": 100, "change": 100}}
    assert got["w"]["flagged"] == ["b.s"]
    out = capsys.readouterr().out
    assert "b.s" in out and "a.s" not in out and "c.count" not in out
    # the change's first pass alone, against the parent's, flags all three
    alone = bench_pair.layers(_trace("parent", parent[:1]) + _trace("change", change[:1]),
                              ["w"], better)
    assert alone["w"]["flagged"] == ["a.s", "b.s", "c.count"]


def test_trace_passes_alternate_sides(tmp_path, monkeypatch):
    bench_pair = load_bench_pair()
    repo = os.path.join(os.path.dirname(__file__), os.pardir)
    calls = []

    def run_once(tree, workload, seed, trace):
        calls.append((tree, workload, trace))
        metrics = {"norm_cpu_s": {"value": 1.0}} if not trace else {"a.s": {"value": 1.0}}
        return ({"correct": True, "failed": 0, "metrics": metrics}, {},
                "machine: cores=2 python=3 numpy=2 commit=unknown")

    monkeypatch.setattr(bench_pair, "git", lambda *args, cwd: (
        os.path.abspath(repo).encode() if "--show-toplevel" in args else b"abc1234"))
    monkeypatch.setattr(bench_pair, "make_trees",
                        lambda repo, sha, scratch: {"parent": "P", "change": "C"})
    monkeypatch.setattr(bench_pair, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pair.main(["abc1234", "0", "--pairs", "2", "--workload", "w",
                            "--output", str(out)]) == 0
    assert calls == [("P", "w", 0), ("C", "w", 0), ("C", "w", 0), ("P", "w", 0),
                     ("P", "w", 1), ("C", "w", 1), ("C", "w", 1), ("P", "w", 1),
                     ("P", "w", 1), ("C", "w", 1)]
    assert len([r for r in json.loads(out.read_text())["runs"] if r["pass"] == "trace"]) == 6
    assert json.loads(out.read_text())["machine"]["exp_dispatch"] == bench_pair.exp_dispatch()


def test_exp_dispatch_counts_where_numpy_exp_leaves_libm(monkeypatch):
    bench_pair = load_bench_pair()
    x = np.linspace(-50, 50, 1001)
    here = sum(a != math.exp(v) for a, v in zip(np.exp(x).tolist(), x.tolist()))
    probe = bench_pair.exp_dispatch()
    assert (probe["differ"], probe["libm"]) == (here, here == 0)
    # without the AVX-512 targets numpy's exp agrees with libm
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")
    assert bench_pair.exp_dispatch()["differ"] == 0


def test_flagged_layers_state_whether_their_pass_ranges_overlap(capsys):
    bench_pair = load_bench_pair()
    better = {"a.s": "lower", "b.s": "lower", "c.s": "lower"}
    # a.s and b.s both flag at +40% and +20%; only b.s's passes share a range
    parent = [{"a.s": 1.0, "b.s": 1.0, "c.s": 1.0},
              {"a.s": 1.1, "b.s": 1.5, "c.s": 1.0},
              {"a.s": 0.9, "b.s": 0.9, "c.s": 1.0}]
    change = [{"a.s": 1.3, "b.s": 1.2, "c.s": 1.0},
              {"a.s": 1.4, "b.s": 1.3, "c.s": 1.0},
              {"a.s": 1.5, "b.s": 1.0, "c.s": 1.0}]
    got = bench_pair.layers(_trace("parent", parent) + _trace("change", change), ["w"], better)
    assert got["w"]["flagged"] == ["a.s", "b.s"]
    assert got["w"]["ranges"] == {"a.s": {"parent": [0.9, 1.1], "change": [1.3, 1.5]},
                                  "b.s": {"parent": [0.9, 1.5], "change": [1.0, 1.3]}}
    assert got["w"]["overlapping"] == ["b.s"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["a.s", "b.s"]
    assert "pass ranges overlap" not in lines[0]
    assert lines[1].endswith("[0.9, 1.5] and [1, 1.3], pass ranges overlap")
