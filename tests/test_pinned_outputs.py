"""Pinned CLI outputs: a refactor must not change a byte.

Each ``tests/data/<name>.json`` is a small run; the files next to it were
written by an earlier version of the package.  The evolve configs (40 steps
x 8 agents, with ``emit_svg``) cover every selection rule, 2-4 sectors, a
sector with a zero production coefficient and a price series that changes
mid-run.  The converge configs are a 3-sector run with a zero coefficient,
given switch steps, a price series that changes mid-run and SVG charts, and
a seeded 2-sector run whose switches are drawn.  The landscape configs
sample 300 strategies of a 4-sector economy with a zero coefficient, and
400 of a 6-sector economy with two zero coefficients and non-unit prices.
"""

import os

import pytest

from growthlab.cli import cli_main

DATA = os.path.join(os.path.dirname(__file__), "data")

#: case id -> (subcommand, config name, pinned suffixes)
PINS = {
    "best": ("evolve", "evolve_best", (".csv", ".response.svg")),
    "proportional": ("evolve", "evolve_proportional", (".csv", ".response.svg")),
    "pairwise": ("evolve", "evolve_pairwise", (".csv", ".response.svg")),
    "converge_given": (
        "converge",
        "converge_given",
        (".csv", ".growth.csv", ".excess.csv", ".growth.svg", ".excess.svg"),
    ),
    "converge_drawn": (
        "converge", "converge_drawn", (".csv", ".growth.csv", ".excess.csv")
    ),
    "landscape_zero_alpha": ("landscape", "landscape_zero_alpha", (".csv",)),
    "landscape_six_sector": ("landscape", "landscape_six_sector", (".csv",)),
}


@pytest.mark.parametrize("case", list(PINS))
def test_evolve_outputs_match_pins(case, tmp_path, capsys, monkeypatch):
    """Every pinned run, evolve or not; the name predates the other commands."""
    command, name, suffixes = PINS[case]
    monkeypatch.delenv("GROWTHLAB_SEED", raising=False)
    out = str(tmp_path / f"{name}.csv")
    config = os.path.join(DATA, f"{name}.json")
    assert cli_main([command, "--config", config, "--output", out]) == 0
    capsys.readouterr()
    for suffix in suffixes:
        got = open(os.path.join(tmp_path, f"{name}{suffix}"), "rb").read()
        want = open(os.path.join(DATA, f"{name}{suffix}"), "rb").read()
        assert got == want, f"{name}{suffix} differs from its pin"
