"""The benchmark's workloads: seeded inputs, the op, and the output checks.

Each workload is a closed loop: one process runs one op at a time, and each
op starts after the last one ends.  Inputs are made from the benchmark seed
alone; growthlab sees only the generated inputs.  Checks run after the
timed ops, read CSVs by header name (never by column position) and never
use the ``income`` column, whose representation is expected to change.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle

import numpy as np

TARGET_GROWTH = 0.0185
#: growthlab's default deprecation and price, which the CLI workloads use.
CLI_DELTA = 0.03
CLI_PRICE = 1.0
GROWTH_FLOOR_TOL = 1e-12
CLOSED_FORM_RTOL = 1e-12
SIMPLEX_TOL = 1e-12


class Csv:
    """A CSV's numeric columns, looked up by header name."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            self.names = fh.readline().rstrip("\n").split(",")
        self.data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def __len__(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]

    def sigma(self) -> np.ndarray:
        """The strategy columns sigma_0..sigma_{n-1}, as a (rows, n) array."""
        n = sum(1 for c in self.names if c.startswith("sigma_"))
        return self.data[:, [self.names.index(f"sigma_{i}") for i in range(n)]]


def closed_form_growth(sigma: np.ndarray, alphas, prices, delta: float,
                       scaling: float | None = None) -> np.ndarray:
    """g* = s * prod(p_i^-alpha_i) * prod(sigma_i^alpha_i) - delta, per row.

    Without ``scaling``, s is calibrated so that sigma = alpha reaches the
    target growth, as growthlab does when given only a target.
    """
    alphas = np.asarray(alphas, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if scaling is None:
        scaling = (TARGET_GROWTH + delta) / math.exp(
            float(alphas @ (np.log(alphas) - np.log(prices))))
    with np.errstate(divide="ignore"):
        log_sigma = np.log(sigma)
    g = scaling * np.exp((log_sigma - np.log(prices)) @ alphas) - delta
    g[(sigma[:, alphas > 0] == 0.0).any(axis=1)] = -delta
    return g


def closed_form_mismatch(got: np.ndarray, want: np.ndarray, delta: float) -> np.ndarray:
    """Rows where got != want to 1e-12 relative.

    The scale is max(|g*|, delta): g* = s*R - delta crosses zero, where a
    purely relative tolerance would ask for more digits than either side has.
    """
    return np.abs(got - want) > CLOSED_FORM_RTOL * np.maximum(np.abs(want), delta)


def below_floor(growth: np.ndarray, delta: float) -> bool:
    return bool((growth < -delta - GROWTH_FLOOR_TOL).any())


def off_simplex(sigma: np.ndarray) -> bool:
    return bool((sigma < 0.0).any() or (np.abs(sigma.sum(axis=1) - 1.0) > SIMPLEX_TOL).any())


class HoldSweep:
    """100 random economies, each run from a uniform state for 2000 steps.

    Each sector count 2..6 is used by 20 economies, in a seeded order, so
    that the work in a pass does not depend on the seed; everything else
    is drawn as ``tests/conftest.py::random_instance`` draws it.
    """

    economies = 100
    steps = 2000

    def __init__(self, seed: int):
        from growthlab import dynamics
        from growthlab.core import EconomyParams, ProductionCoefficients, Strategy

        self.dynamics = dynamics
        rng = np.random.default_rng(seed)
        self.inputs = []
        sectors = rng.permutation(np.repeat(np.arange(2, 7), self.economies // 5))
        for n in map(int, sectors):
            alphas = rng.dirichlet(np.ones(n))
            draw = np.maximum(rng.dirichlet(np.ones(n)), 0.0)
            sigma = draw / draw.sum()
            delta = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
            prices = rng.uniform(0.5, 2.0, n)
            resp = math.exp(float(alphas @ np.log(sigma)))
            # calibrated on the sampled strategy, so its own g* is the target
            scaling = (TARGET_GROWTH + delta) / (float(np.prod(prices ** -alphas)) * resp)
            g_star = closed_form_growth(sigma[None, :], alphas, prices, delta, scaling)[0]
            self.inputs.append((
                ProductionCoefficients(alphas),
                Strategy(sigma),
                EconomyParams(scaling, delta, prices),
                dynamics.PriceSchedule.constant(prices),
                delta,
                g_star,
            ))
        self.ops = len(self.inputs)
        self.agent_steps = self.economies * self.steps
        self.evolve_agent_steps = 0

    def run_op(self, i: int):
        coefficients, strategy, params, schedule, _, _ = self.inputs[i]
        start = self.dynamics.uniform_state(strategy, coefficients, params)
        return self.dynamics.run_hold(start, params, coefficients, schedule, self.steps)

    def summarize(self, i: int, records):
        growth = [r.growth for r in records]
        digest = hashlib.sha256(pickle.dumps(records, protocol=4)).hexdigest()
        return (len(records), growth[-1], min(growth), digest)

    def check(self, summaries, workdir: str) -> dict[int, str]:
        failures = {}
        for i, summary in enumerate(summaries):
            if summary is None:  # the op raised; the worker reports that
                continue
            count, final, lowest, _ = summary
            delta, g_star = self.inputs[i][4], self.inputs[i][5]
            if count != self.steps:
                failures[i] = f"{count} records, expected {self.steps}"
            elif not abs(final - g_star) < 1e-8:
                failures[i] = f"final |g - g*| = {abs(final - g_star):.3e}"
            elif not lowest >= -delta - GROWTH_FLOOR_TOL:
                failures[i] = f"growth {lowest!r} below -delta"
        return failures


class CliWorkload:
    """Ops that are growthlab CLI invocations run in-process via cli_main."""

    argvs: list[list[str]]
    expected_files: list[str]

    def __init__(self):
        from growthlab import cli

        self.cli = cli
        self.ops = len(self.argvs)

    def run_op(self, i: int):
        return self.cli.cli_main(self.argvs[i])

    def summarize(self, i: int, exit_code):
        return exit_code

    def check(self, summaries, workdir: str) -> dict[int, str]:
        failures = {i: f"exit code {rc}" for i, rc in enumerate(summaries)
                    if rc is not None and rc != 0}
        for i in range(self.ops):
            if i in failures or summaries[i] is None:
                continue
            missing = [f for f in self.op_files(i) if not os.path.isfile(os.path.join(workdir, f))]
            if missing:
                failures[i] = f"missing {missing}"
                continue
            problem = self.check_op(i, workdir)
            if problem:
                failures[i] = problem
        return failures

    def op_files(self, i: int) -> list[str]:
        return self.expected_files


class EvolveCli(CliWorkload):
    """growthlab evolve: 500 steps x 50 agents, one large CSV plus an SVG."""

    alphas = (0.5, 0.5)
    steps = 500
    population = 50

    def __init__(self, seed: int):
        self.argvs = [["evolve", "--alpha", ",".join(map(str, self.alphas)),
                       "--steps", str(self.steps),
                       "--population", str(self.population), "--svg",
                       "--seed", str(seed), "--output", "evolve.csv"]]
        self.expected_files = ["evolve.csv", "evolve.config.json", "evolve.response.svg"]
        self.agent_steps = self.evolve_agent_steps = self.steps * self.population
        super().__init__()

    def check_op(self, i: int, workdir: str) -> str | None:
        table = Csv(os.path.join(workdir, "evolve.csv"))
        expected = (self.steps + 1) * self.population
        if len(table) != expected:
            return f"{len(table)} rows, expected {expected}"
        sigma = table.sigma()
        if off_simplex(sigma):
            return "a sigma row is off the simplex"
        if below_floor(table.column("growth"), CLI_DELTA):
            return "growth below -delta"
        want = closed_form_growth(sigma, self.alphas, [CLI_PRICE] * len(self.alphas), CLI_DELTA)
        bad = closed_form_mismatch(table.column("equilibrium_growth"), want, CLI_DELTA)
        if bad.any():
            return f"{int(bad.sum())} equilibrium_growth values differ from the closed form"
        return None


class SwitchSweep(CliWorkload):
    """50 growthlab converge runs with seeds seed..seed+49, as criterion 8."""

    runs = 50
    steps = 500

    def __init__(self, seed: int):
        self.argvs = [["converge", "--alpha", "0.5,0.5", "--target", str(TARGET_GROWTH),
                       "--steps", str(self.steps), "--svg", "--seed", str(seed + i),
                       "--output", f"switch_{i}.csv"] for i in range(self.runs)]
        self.agent_steps = self.runs * self.steps
        self.evolve_agent_steps = 0
        super().__init__()

    def op_files(self, i: int) -> list[str]:
        stem = f"switch_{i}"
        return [f"{stem}{ext}" for ext in (".csv", ".config.json", ".growth.csv",
                                           ".excess.csv", ".growth.svg", ".excess.svg")]

    def check_op(self, i: int, workdir: str) -> str | None:
        table = Csv(os.path.join(workdir, f"switch_{i}.csv"))
        if len(table) != self.steps:
            return f"{len(table)} rows, expected {self.steps}"
        growth = table.column("growth")
        if below_floor(growth, CLI_DELTA):
            return "growth below -delta"
        g_star = table.column("equilibrium_growth")
        sigma = table.sigma()
        # first step under each newly adopted strategy (17 digits round-trip exactly)
        first = np.flatnonzero((sigma[1:] != sigma[:-1]).any(axis=1)) + 1
        late = first[~(growth[first] > g_star[first])]
        if late.size:
            t = int(late[0])
            return (f"step {t + 1}: growth {float(growth[t])!r} <= g* {float(g_star[t])!r}"
                    " after a switch")
        return None


class LandscapeCli(CliWorkload):
    """growthlab landscape: 20,000 distinct strategies, no stepping at all."""

    alphas = (0.1, 0.2, 0.3, 0.4)
    samples = 20000

    def __init__(self, seed: int):
        self.argvs = [["landscape", "--alpha", ",".join(map(str, self.alphas)),
                       "--samples", str(self.samples), "--seed", str(seed),
                       "--output", "landscape.csv"]]
        self.expected_files = ["landscape.csv", "landscape.config.json"]
        self.agent_steps = self.evolve_agent_steps = 0
        super().__init__()

    def check_op(self, i: int, workdir: str) -> str | None:
        table = Csv(os.path.join(workdir, "landscape.csv"))
        if len(table) != self.samples:
            return f"{len(table)} rows, expected {self.samples}"
        sigma = table.sigma()
        if off_simplex(sigma):
            return "a sigma row is off the simplex"
        got = table.column("equilibrium_growth")
        if below_floor(got, CLI_DELTA):
            return "equilibrium growth below -delta"
        want = closed_form_growth(sigma, self.alphas, [CLI_PRICE] * len(self.alphas), CLI_DELTA)
        bad = closed_form_mismatch(got, want, CLI_DELTA)
        if bad.any():
            return f"{int(bad.sum())} equilibrium_growth values differ from the closed form"
        return None


WORKLOADS = {
    "hold-sweep": HoldSweep,
    "evolve-cli": EvolveCli,
    "switch-sweep": SwitchSweep,
    "landscape-cli": LandscapeCli,
}
