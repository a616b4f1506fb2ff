"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they print.  Criteria with runtime budgets time themselves and
fail if they exceed the budget.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from growthlab import (
    EconomyParams,
    ProductionCoefficients,
    Strategy,
    project_to_simplex,
)
from growthlab.cli import cli_main
from growthlab.config import config_from_dict
from growthlab.core import _clip_renormalize
from growthlab.dynamics import (
    equilibrium_state,
    run_hold,
    run_switch_experiment,
    step_agent,
    uniform_state,
)
from growthlab.equilibrium import (
    calibrate_scaling,
    equilibrium_growth,
    equilibrium_ratio,
    optimal_strategy,
    response,
)
from growthlab.evolution import (
    EvolutionConfig,
    evolve_step,
    init_population,
)
from growthlab.experiments import run_experiment

from conftest import default_economy, near_optimal, random_instance
from test_ratio_kernel import VISIBLE_TOL, switch_runs, visibility_slack


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    else:
        print(f"[criterion {num:2d}] {name}: PASS")


@pytest.fixture(scope="module")
def instances():
    """100 randomized economies; scaling calibrated per instance (see conftest)."""
    rng = np.random.default_rng(20260809)
    return [random_instance(rng) for _ in range(100)]


def test_criterion_1_closed_form_equilibrium(instances):
    with criterion(1, "closed-form equilibrium growth after 2000 steps"):
        t0 = time.perf_counter()
        worst = 0.0
        for inst in instances:
            g_star = equilibrium_growth(inst.strategy, inst.coefficients, inst.params)
            start = uniform_state(inst.strategy, inst.coefficients, inst.params)
            records = run_hold(
                start, inst.params, inst.coefficients, inst.schedule, 2000
            )
            worst = max(worst, abs(records[-1].growth - g_star))
        elapsed = time.perf_counter() - t0
        print(f"    max |growth - g*| = {worst:.3e}, elapsed = {elapsed:.2f}s")
        assert worst < 1e-8
        assert elapsed < 5.0


def test_criterion_2_monotone_ratio_convergence(instances):
    with criterion(2, "monotone capital/income ratio convergence"):
        worst_reversal = 0.0  # from the default (fixed-point) initial state
        worst_limit_gap = 0.0  # from the generic start, after 2000 steps
        transient_undershoots = 0
        for inst in instances:
            limit = equilibrium_ratio(inst.strategy, inst.coefficients, inst.params)

            def distances(state):  # |ratio - limit| after each of 2000 steps
                ratios = []
                for _ in range(2000):
                    state = step_agent(state, inst.params, inst.coefficients)
                    ratios.append(state.ratio)
                return np.abs(np.array(ratios) - limit)

            # run_hold's default initial state: the ratio series must never
            # move away from the limit by more than float noise
            dist = distances(equilibrium_state(inst.strategy, inst.coefficients, inst.params))
            worst_reversal = max(worst_reversal, float(np.max(np.diff(dist, axis=0))))

            # generic start: the ratio must reach the same limit; early
            # transients may undershoot it once, which is logged, not hidden
            dist = distances(uniform_state(inst.strategy, inst.coefficients, inst.params))
            transient_undershoots += float(np.max(np.diff(dist, axis=0))) > 1e-12
            worst_limit_gap = max(worst_limit_gap, float(np.max(dist[-1])))
        print(
            f"    fixed-point runs: max reversal = {worst_reversal:.3e}; "
            f"generic runs: limit gap = {worst_limit_gap:.3e}, "
            f"{transient_undershoots}/100 with an early-transient undershoot"
        )
        assert worst_reversal <= 1e-12
        assert worst_limit_gap < 1e-8


def test_criterion_3_special_case_growth_floor():
    with criterion(3, "zero investment in productive sectors gives g == -delta"):
        cases = [
            # (alphas, sigma, delta, steps)
            ([0.7, 0.3, 0.0], [0.0, 0.0, 1.0], 0.03, 400),
            ([0.6, 0.4, 0.0], [0.0, 0.0, 1.0], 0.2, 80),
            ([1.0, 0.0], [0.0, 1.0], 0.5, 25),
        ]
        worst = 0.0
        for alphas, sigma, delta, steps in cases:
            c = ProductionCoefficients(np.array(alphas))
            sig = Strategy(np.array(sigma))
            prices = np.linspace(0.8, 1.4, len(alphas))
            params = EconomyParams(0.4, delta, prices)
            assert equilibrium_growth(sig, c, params) == -delta  # exact
            state = uniform_state(sig, c, params, capital_level=2.0)
            for _ in range(steps):
                state = step_agent(state, params, c)
                worst = max(worst, abs(state.growth - (-delta)))
        print(f"    max |growth + delta| = {worst:.3e}")
        assert worst <= 1e-14


def test_criterion_4_overshoot_from_above():
    with criterion(4, "post-switch growth decays to equilibrium from above"):
        t0 = time.perf_counter()
        params, coefficients, schedule = default_economy()
        switch_at, steps = 30, 180
        min_excess = np.inf
        monotone = 0
        violations = []
        n_runs = 200
        for k in range(n_runs):
            rng = np.random.default_rng([20260809, k])
            a = near_optimal(coefficients, 0.02, rng)
            b = near_optimal(coefficients, 0.02, rng)
            records = run_switch_experiment(
                a, [(switch_at, b)], params, coefficients, schedule, steps
            )
            post = records[switch_at - 1 :]
            excess = np.array([r.excess_growth for r in post])
            min_excess = min(min_excess, float(excess.min()))
            growth = np.array([r.growth for r in post])
            peak = int(np.argmax(growth))
            if (np.diff(growth[peak:]) <= 1e-12).all():
                monotone += 1
            else:
                violations.append(k)
        elapsed = time.perf_counter() - t0
        if violations:
            print(f"    non-monotone runs (logged): {violations}")
        print(
            f"    min post-switch excess = {min_excess:.3e}, "
            f"monotone-after-peak = {monotone}/{n_runs}, elapsed = {elapsed:.2f}s"
        )
        assert min_excess >= -1e-10
        assert monotone / n_runs >= 0.95
        assert elapsed < 10.0


def _vector_response(sigmas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(sigmas > 0.0, np.log(np.maximum(sigmas, 1e-320)), -np.inf)
        mask = alphas > 0.0
        out = np.exp((logs[:, mask] * alphas[mask]).sum(axis=1))
    return out


def test_criterion_5_convex_combination_bound():
    with criterion(5, "equal-growth convex combinations grow at least as fast"):
        rng = np.random.default_rng(55_2026)
        total = 0
        worst_margin = np.inf
        for batch in range(10):
            n = int(rng.integers(2, 6))
            alphas = rng.dirichlet(np.ones(n))
            coefficients = ProductionCoefficients(alphas)
            delta = 1.0 - float(rng.uniform(0.0, 1.0))
            prices = rng.uniform(0.5, 2.0, n)
            scaling = float(rng.uniform(0.05, 2.0))
            params = EconomyParams(scaling, delta, prices)

            m = 1000
            a = rng.dirichlet(np.ones(n), size=m)
            alpha_row = alphas[None, :]
            target = _vector_response(a, alphas)
            # walk from the optimum toward a response-zero corner until the
            # response matches each a's level: that point is the pair partner
            corners = np.zeros((m, n))
            corner_idx = rng.integers(0, n, size=m)
            corners[np.arange(m), corner_idx] = 1.0
            lo = np.zeros(m)
            hi = np.ones(m)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                x = (1.0 - mid[:, None]) * alpha_row + mid[:, None] * corners
                resp = _vector_response(x, alphas)
                go_right = resp > target
                lo = np.where(go_right, mid, lo)
                hi = np.where(go_right, hi, mid)
            mu = 0.5 * (lo + hi)
            b = (1.0 - mu[:, None]) * alpha_row + mu[:, None] * corners
            lam = rng.uniform(0.0, 1.0, size=m)

            for i in range(m):
                sa = project_to_simplex(a[i])
                sb = project_to_simplex(b[i])
                g_a = equilibrium_growth(sa, coefficients, params)
                g_b = equilibrium_growth(sb, coefficients, params)
                level = min(g_a, g_b)
                combo = Strategy(lam[i] * sa.weights + (1 - lam[i]) * sb.weights)
                g_combo = equilibrium_growth(combo, coefficients, params)
                worst_margin = min(worst_margin, g_combo - level)
                total += 1
        print(f"    triples = {total}, worst margin = {worst_margin:.3e}")
        assert total == 10_000
        assert worst_margin >= -1e-12


def test_criterion_6_order_invariance():
    with criterion(6, "strategy order depends only on the response term"):
        rng = np.random.default_rng(66_2026)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            coefficients = ProductionCoefficients(rng.dirichlet(np.ones(n)))
            s1 = project_to_simplex(rng.dirichlet(np.ones(n)))
            s2 = project_to_simplex(rng.dirichlet(np.ones(n)))
            response_sign = np.sign(response(s1, coefficients) - response(s2, coefficients))
            for _ in range(10):
                params = EconomyParams(
                    float(rng.uniform(0.01, 5.0)),
                    1.0 - float(rng.uniform(0.0, 1.0)),
                    rng.uniform(0.1, 10.0, n),
                )
                g1 = equilibrium_growth(s1, coefficients, params)
                g2 = equilibrium_growth(s2, coefficients, params)
                assert np.sign(g1 - g2) == response_sign
                checked += 1
        print(f"    orderings checked = {checked}")
        assert checked == 10_000


def _hill_climb(start: Strategy, coefficients, rng: np.random.Generator) -> float:
    """The best response a random-perturbation ascent on the simplex finds.

    Perturb the incumbent with spherical Gaussian noise of the current step
    (0.05 at first), repair onto the simplex, and keep the candidate iff its
    response is strictly higher; a draw with no repair is a rejection.
    After 20 rejections in a row the step halves; the climb stops once the
    step falls below 1e-7, or after 10,000 draws.
    """
    best, best_val = start.weights, response(start, coefficients)
    step, stall = 0.05, 0
    for _ in range(10_000):
        repaired = _clip_renormalize(best + rng.normal(0.0, step, size=best.size))
        val = -1.0 if repaired is None else response(Strategy(repaired), coefficients)
        if val > best_val:
            best, best_val, stall = repaired, val, 0
        else:
            stall += 1
        if stall >= 20:
            step, stall = step * 0.5, 0
            if step < 1e-7:
                break
    return best_val


def test_criterion_7_unique_optimum_hill_climbable():
    with criterion(7, "hill climbing reaches the single global maximum"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77_2026)
        worst_gap = 0.0
        runs = 0
        for n in (2, 3, 4, 5):
            for k in range(25):
                # interior coefficients: bounded away from the simplex faces
                raw = rng.dirichlet(np.ones(n)) + 0.08
                coefficients = ProductionCoefficients(raw / raw.sum())
                start = project_to_simplex(rng.dirichlet(np.ones(n)))
                found = _hill_climb(start, coefficients, np.random.default_rng([n, k]))
                best = response(optimal_strategy(coefficients), coefficients)
                worst_gap = max(worst_gap, best - found)
                runs += 1
        elapsed = time.perf_counter() - t0
        print(
            f"    starts = {runs}, worst response gap = {worst_gap:.3e}, "
            f"elapsed = {elapsed:.2f}s"
        )
        assert runs == 100
        assert worst_gap < 1e-4
        assert elapsed < 5.0


def test_criterion_8_switch_overshoot_replication(tmp_path):
    with criterion(8, "switch experiments overshoot, occasionally above the optimum"):
        params, coefficients, _ = default_economy(0.0185)
        g_alpha = equilibrium_growth(optimal_strategy(coefficients), coefficients, params)
        seeds_with_overshoot = 0
        first_step_checks = 0
        for seed in range(50):
            doc = {
                "experiment": "switch",
                "steps": 500,
                "seed": seed,
                "economy": {
                    "alphas": [0.5, 0.5],
                    "deprecation": 0.03,
                    "prices": [1.0, 1.0],
                },
                "target_growth": 0.0185,
                "switch": {"mutation_sd": 0.02},
                "output": str(tmp_path / f"switch_{seed}.csv"),
            }
            result = run_experiment(config_from_dict(doc))
            rows = [
                line.split(",")
                for line in open(result.output).read().splitlines()[1:]
            ]
            sigmas = [(r[7], r[8]) for r in rows]
            growths = np.array([float(r[4]) for r in rows])
            g_stars = np.array([float(r[5]) for r in rows])
            for t in range(1, len(rows)):
                if sigmas[t] != sigmas[t - 1]:
                    # first step under the newly adopted strategy
                    assert growths[t] > g_stars[t]
                    first_step_checks += 1
            if (growths > g_alpha).any():
                seeds_with_overshoot += 1
        print(
            f"    switches checked = {first_step_checks}, "
            f"seeds with growth above the optimum's equilibrium = "
            f"{seeds_with_overshoot}/50"
        )
        assert first_step_checks > 50  # several changes per 500-step run
        assert seeds_with_overshoot >= 1


def test_criterion_9_determinism_golden(tmp_path, capsys):
    with criterion(9, "pinned-seed CSV output is byte-identical across runs"):
        conv = ["converge", "--alpha", "0.5,0.5", "--delta", "0.03",
                "--prices", "1,1", "--target", "0.0185", "--steps", "300",
                "--seed", "424242"]
        paths = [str(tmp_path / f"conv_{i}.csv") for i in (0, 1)]
        for p in paths:
            assert cli_main(conv + ["--output", p]) == 0
        conv_identical = open(paths[0], "rb").read() == open(paths[1], "rb").read()

        evo = ["evolve", "--alpha", "0.5,0.5", "--delta", "0.03",
               "--prices", "1,1", "--target", "0.0185", "--steps", "120",
               "--population", "20", "--sample", "5", "--seed", "424242"]
        epaths = [str(tmp_path / f"evo_{i}.csv") for i in (0, 1)]
        for p in epaths:
            assert cli_main(evo + ["--output", p]) == 0
        evo_identical = open(epaths[0], "rb").read() == open(epaths[1], "rb").read()

        capsys.readouterr()  # swallow the CLI's own path listing
        print(f"    converge identical = {conv_identical}, evolve identical = {evo_identical}")
        assert conv_identical
        assert evo_identical


def test_criterion_10_evolution_trend():
    with criterion(10, "population mean response rises over 500 steps"):
        t0 = time.perf_counter()
        params, coefficients, _ = default_economy()
        improved = 0
        n_runs = 20
        for run in range(n_runs):
            config = EvolutionConfig(seed=9000 + run)
            pop = init_population(params, coefficients, config)
            mean_start = float(
                np.mean([response(a.strategy, coefficients) for a in pop.agents])
            )
            for _ in range(500):
                pop = evolve_step(pop, params, coefficients, config)
            mean_end = float(
                np.mean([response(a.strategy, coefficients) for a in pop.agents])
            )
            improved += mean_end > mean_start
        elapsed = time.perf_counter() - t0
        print(f"    improved runs = {improved}/{n_runs}, elapsed = {elapsed:.2f}s")
        assert improved / n_runs >= 0.9
        assert elapsed < 30.0


def test_criterion_11_switch_visible_at_once():
    with criterion(11, "a switch from a fixed point shows in that step's growth"):
        t0 = time.perf_counter()
        slacks = []

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(run=switch_runs(b_like_a=True))
        def switch(run):
            slacks.append(visibility_slack(run))

        switch()
        elapsed = time.perf_counter() - t0
        finite = sum(s < np.inf for s in slacks)
        print(f"    worst slack = {min(slacks):.3e} over {len(slacks)} switches, "
              f"{finite} with a finite bound, elapsed = {elapsed:.2f}s")
        assert finite == len(slacks) == 120
        assert min(slacks) >= -VISIBLE_TOL
        assert elapsed < 2.0


def test_criterion_12_quick_adaptation():
    with criterion(12, "a population at a poor common strategy adapts quickly"):
        t0 = time.perf_counter()
        params, coefficients, _ = default_economy()
        start = Strategy(np.array([0.9, 0.1]))  # response 0.3 of the maximum 0.5

        def population(config):
            return init_population(params, coefficients, config,
                                   strategies=[start] * config.population_size)

        steps = []
        for seed in range(6):
            config = EvolutionConfig(seed=seed)
            pop = population(config)
            for t in range(1, 601):
                pop = evolve_step(pop, params, coefficients, config)
                if np.mean([response(s, coefficients) for s in pop.strategies]) >= 0.495:
                    break
            else:
                t = None  # not within 600 steps
            steps.append(t)
        # every peer of a homogeneous start grows as the observer does, so
        # pairwise-better never imitates and variation never enters
        config = EvolutionConfig(seed=0, selection_rule="pairwise-better")
        pop = population(config)
        for _ in range(500):
            pop = evolve_step(pop, params, coefficients, config)
        held = all(s is start for s in pop.strategies)
        elapsed = time.perf_counter() - t0
        print(f"    steps to 99% of the maximum response, seeds 0-5 = {steps}; "
              f"pairwise-better held its start = {held}, elapsed = {elapsed:.2f}s")
        assert None not in steps
        assert held
        assert elapsed < 10.0


def test_criterion_13_imitators_copy_excess_growth():
    with criterion(13, "chosen parents grow past their g* more than the population does"):
        t0 = time.perf_counter()
        params, coefficients, _ = default_economy()
        means, shares = [], []
        for seed in range(6):
            config = EvolutionConfig(seed=seed)  # imitate-best-observed, 50 agents
            pop = init_population(params, coefficients, config)
            g_star = np.array([equilibrium_growth(s, coefficients, params)
                               for s in pop.strategies])
            total, copied, below = 0.0, [], 0
            for _ in range(500):
                pop = evolve_step(pop, params, coefficients, config)
                # phase-1 growth minus the g* of the strategy held during the step
                excess = pop.growth - g_star
                total += float(excess.sum())
                imitators = np.flatnonzero(pop.parents >= 0)
                parents = pop.parents[imitators]
                copied += excess[parents].tolist()
                below += int((g_star[parents] < g_star[imitators]).sum())
                for i in imitators.tolist():
                    g_star[i] = equilibrium_growth(pop.strategies[i], coefficients, params)
            means.append((float(np.mean(copied)), total / (500 * config.population_size)))
            shares.append(below / len(copied))
        elapsed = time.perf_counter() - t0
        print("    mean excess growth (parents, population), seeds 0-5 = "
              + ", ".join(f"({p:.2e}, {q:.2e})" for p, q in means)
              + f"; copies of a parent with lower g* = {min(shares):.0%}-{max(shares):.0%}, "
              f"elapsed = {elapsed:.2f}s")
        assert all(p > q for p, q in means)
        assert elapsed < 10.0


def test_criterion_14_adaptation_after_a_technology_shock():
    with criterion(14, "an evolved population adapts to a change of alpha"):
        t0 = time.perf_counter()
        params, before, _ = default_economy()  # scaling stays calibrated to (0.5, 0.5)
        after = ProductionCoefficients(np.array([0.8, 0.2]))
        top = response(optimal_strategy(after), after)

        def share(pop):  # mean response under the new alpha, over its maximum
            return float(np.mean([response(s, after) for s in pop.strategies])) / top

        at_shock, steps = [], []
        for seed in range(6):
            config = EvolutionConfig(seed=seed)  # imitate-best-observed, 50 agents
            pop = init_population(params, before, config)
            for _ in range(500):
                pop = evolve_step(pop, params, before, config)
            at_shock.append(share(pop))
            # invested capital carries over; from here on it produces with the new alpha
            for t in range(1, 601):
                pop = evolve_step(pop, params, after, config)
                if t % 10 == 0 and share(pop) >= 0.99:
                    break
            else:
                t = None  # not within 600 steps
            steps.append(t)
        elapsed = time.perf_counter() - t0
        print(f"    mean response at the shock = {min(at_shock):.3f}-{max(at_shock):.3f} "
              f"of the new maximum; steps to 99% of it, seeds 0-5 = {steps}, "
              f"elapsed = {elapsed:.2f}s")
        assert None not in steps
        assert elapsed < 2.0


def _switch_contractions(rng, delta=None):
    """A drawn switch a -> b from a's fixed point: 2-6 sectors, alpha, a and b
    Dirichlet, delta U[0.02, 0.9], prices U[0.5, 2], scaling calibrated so the
    optimum grows at 0.0185.  Stepped by step_agent, at least twice, until the
    ratio gap max|x - x*_b| / max|x*_b| and the excess growth |g - g*_b| are
    both below 1e-8, or 300 times.  Returns lambda = (1 - delta) / (1 + g*_b)
    and the gap and the excess after each step, the switch step first."""
    n = int(rng.integers(2, 7))
    coefficients = ProductionCoefficients(rng.dirichlet(np.ones(n)))
    a, b = (project_to_simplex(rng.dirichlet(np.ones(n))) for _ in range(2))
    delta = float(rng.uniform(0.02, 0.9)) if delta is None else delta
    prices = rng.uniform(0.5, 2.0, n)
    params = EconomyParams(calibrate_scaling(0.0185, coefficients, delta, prices),
                           delta, prices)
    x_b = equilibrium_ratio(b, coefficients, params)
    g_b = equilibrium_growth(b, coefficients, params)
    state = replace(equilibrium_state(a, coefficients, params), strategy=b)
    gaps, excess = [], []
    while len(gaps) < 2 or len(gaps) < 300 and max(gaps[-1], excess[-1]) >= 1e-8:
        state = step_agent(state, params, coefficients)
        gaps.append(float(np.abs(state.ratio - x_b).max() / np.abs(x_b).max()))
        excess.append(abs(state.growth - g_b))
    return (1.0 - delta) / (1.0 + g_b), gaps, excess


def _last_contraction(series):
    """series[t + 1] / series[t] for the last t >= 1 (the second step after
    the switch or a later one) with series[t] above 1e-8."""
    t = max(t for t in range(1, len(series) - 1) if series[t] > 1e-8)
    return series[t + 1] / series[t]


def test_criterion_15_convergence_at_its_closed_form_rate():
    with criterion(15, "after a switch the gap contracts by lambda, the excess by lambda^2"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20261020)
        errors = []  # per draw: relative errors against lambda and lambda^2
        for _ in range(200):
            lam, gaps, excess = _switch_contractions(rng)
            errors.append((abs(_last_contraction(gaps) / lam - 1.0),
                           abs(_last_contraction(excess) / lam**2 - 1.0)))
        gap_err, excess_err = np.array(errors).T
        # at full deprecation lambda is 0: the switch step lands on b's fixed point
        at_one = [_switch_contractions(rng, delta=1.0) for _ in range(20)]
        worst_at_one = max(max(gaps[0], excess[1]) for _, gaps, excess in at_one)
        elapsed = time.perf_counter() - t0
        print(f"    lambda: median error {np.median(gap_err):.2e}, worst {gap_err.max():.2e}; "
              f"lambda^2: median {np.median(excess_err):.2e}, worst {excess_err.max():.2e}; "
              f"delta = 1: worst gap or excess {worst_at_one:.2e}, elapsed = {elapsed:.2f}s")
        assert np.median(gap_err) < 1e-7 and gap_err.max() < 2e-3
        assert np.median(excess_err) < 1e-3 and excess_err.max() < 2e-2
        assert worst_at_one < 1e-12
        assert elapsed < 2.0
