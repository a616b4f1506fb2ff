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

The CSV bits depend on numpy's SIMD dispatch: its AVX-512 ``exp`` and
``log`` differ from libm's in the last bits, and the X86_V3 target's agree
with libm's.  So the CSVs have two pin sets, ``tests/data/`` (AVX-512) and
``tests/data/x86_v3/`` (X86_V3, which X86_V2 matches), chosen by the ``exp``
probe of tools/bench_pair.py; the configs and SVGs are the same on both.
"""

import functools
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from growthlab.cli import cli_main

DATA = os.path.join(os.path.dirname(__file__), "data")
#: bench_pair's exp probe values off libm -> the CSV pin set of that dispatch
PIN_SETS = {51: DATA, 0: os.path.join(DATA, "x86_v3")}


@functools.cache
def csv_pins() -> str:
    """The CSV pin set of this process's dispatch; fails on an unknown one,
    with no tolerance to fall back to."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pair.py")
    spec = importlib.util.spec_from_file_location("bench_pair", path)
    bench_pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pair)
    differ = bench_pair.exp_dispatch()["differ"]
    if differ not in PIN_SETS:
        pytest.fail(f"no pin set for numpy {np.__version__} with {differ} exp probe "
                    f"values off libm (known: {sorted(PIN_SETS)})")
    return PIN_SETS[differ]


def pin_path(name: str) -> str:
    return os.path.join(csv_pins() if name.endswith(".csv") else DATA, name)

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
        want = open(pin_path(f"{name}{suffix}"), "rb").read()
        assert got == want, f"{name}{suffix} differs from its pin"


def test_pins_hold_on_the_x86_v3_dispatch():
    """The pin comparison again, in a child whose numpy takes the X86_V3
    target, so both pin sets are checked on an AVX-512 host."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_evolve_outputs_match_pins"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert f"{len(PINS)} passed" in proc.stdout
