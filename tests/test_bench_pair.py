"""Argument checks of tools/bench_pair.py, which run before any git call or
benchmark run."""

import importlib.util
import os

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
