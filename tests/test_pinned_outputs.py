"""Pinned `growthlab evolve` outputs: a refactor must not change a byte.

Each ``tests/data/evolve_<name>.json`` is a small run (40 steps x 8 agents,
with ``emit_svg``); the CSV and ``.response.svg`` next to it were written by
an earlier version of the package.  Between them the three configs cover
every selection rule, 2-4 sectors, a sector with a zero production
coefficient and a price series that changes mid-run.
"""

import os

import pytest

from growthlab.cli import cli_main

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name", ["best", "proportional", "pairwise"])
def test_evolve_outputs_match_pins(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
    out = str(tmp_path / f"evolve_{name}.csv")
    config = os.path.join(DATA, f"evolve_{name}.json")
    assert cli_main(["evolve", "--config", config, "--output", out]) == 0
    capsys.readouterr()
    for suffix in (".csv", ".response.svg"):
        got = open(os.path.join(tmp_path, f"evolve_{name}{suffix}"), "rb").read()
        want = open(os.path.join(DATA, f"evolve_{name}{suffix}"), "rb").read()
        assert got == want, f"evolve_{name}{suffix} differs from its pin"
