import json
import math
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab.cli import cli_main
from growthlab.config import config_from_dict, load_config
from growthlab.core import DomainError, Strategy, _income
from growthlab import config, core, dynamics, equilibrium, experiments
from growthlab.equilibrium import equilibrium_growth, response
from growthlab.evolution import SELECTION_RULES, evolve_step, init_population
from growthlab.dynamics import TraceRecord, equilibrium_state, run_hold
from growthlab.experiments import (
    fmt17,
    format_trace,
    run_experiment,
    trace_header,
)
from growthlab.svgchart import emit_svg


def _switch_doc(tmp_path, **overrides):
    doc = {
        "experiment": "switch",
        "steps": 200,
        "seed": 11,
        "economy": {"alphas": [0.5, 0.5], "deprecation": 0.03, "prices": [1.0, 1.0]},
        "target_growth": 0.0185,
        "output": str(tmp_path / "trace.csv"),
    }
    doc.update(overrides)
    return doc


class TestCsvFormat:
    def test_seventeen_digit_round_trip(self):
        values = [0.1, 1 / 3, 0.0185, 1e-17, 123456.789, -0.03]
        for v in values:
            assert float(fmt17(v)) == v

    def test_trace_schema(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path))
        result = run_experiment(cfg)
        lines = open(result.output).read().splitlines()
        assert lines[0] == (
            "step,agent_id,income,log_income,growth,equilibrium_growth,"
            "excess_growth,sigma_0,sigma_1"
        )
        assert len(lines) == 1 + 200
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert len(first) == 9

    def test_header_helper(self):
        assert trace_header(3).endswith("sigma_0,sigma_1,sigma_2")


class TestSwitchExperiment:
    def test_writes_panels_and_config(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path, emit_svg=True))
        result = run_experiment(cfg)
        stem = os.path.splitext(result.output)[0]
        for suffix in (".config.json", ".growth.csv", ".excess.csv",
                       ".growth.svg", ".excess.svg"):
            assert os.path.exists(stem + suffix), suffix

    def test_panel_contents_match_trace(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path))
        result = run_experiment(cfg)
        stem = os.path.splitext(result.output)[0]
        trace = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        growth_panel = [
            l.split(",") for l in open(stem + ".growth.csv").read().splitlines()[1:]
        ]
        excess_panel = [
            l.split(",") for l in open(stem + ".excess.csv").read().splitlines()[1:]
        ]
        for t_row, g_row, e_row in zip(trace, growth_panel, excess_panel):
            assert g_row[0] == t_row[0]
            assert g_row[1] == t_row[4]
            assert g_row[2] == t_row[5]
            assert e_row[1] == t_row[6]

    def test_each_price_row_is_checked_once(self, tmp_path, monkeypatch):
        # three rows: the run checks each once, however many switches it makes
        check, calls = core._check_prices, []

        def counted(*args):
            calls.append(args)
            return check(*args)

        for module in (core, equilibrium, dynamics, config):
            monkeypatch.setattr(module, "_check_prices", counted)
        rows = [[1.0, 1.0], [1.2, 0.9], [0.8, 1.1]]
        counts = []
        for switches in (2, 8):
            at = list(range(10, 10 + 5 * switches, 5))
            sigmas = [[0.3, 0.7], [0.6, 0.4]] * (switches // 2)
            doc = _switch_doc(tmp_path, steps=60, price_schedule=rows, switch={
                "initial_sigma": [0.5, 0.5], "switch_steps": at, "switch_sigmas": sigmas})
            cfg = config_from_dict(doc)
            calls.clear()
            experiments.switch_experiment(cfg)
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_excess_growth_never_meaningfully_negative(self, tmp_path):
        cfg = config_from_dict(_switch_doc(tmp_path, seed=3))
        result = run_experiment(cfg)
        rows = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        excess = np.array([float(r[6]) for r in rows])
        assert excess.min() >= -1e-10

    def test_each_switch_overshoots_new_equilibrium(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=19)
        cfg = config_from_dict(doc)
        result = run_experiment(cfg)
        rows = [l.split(",") for l in open(result.output).read().splitlines()[1:]]
        sigmas = [(r[7], r[8]) for r in rows]
        for t in range(1, len(rows)):
            if sigmas[t] != sigmas[t - 1]:  # a switch took effect at step t+1
                growth = float(rows[t][4])
                g_star = float(rows[t][5])
                assert growth > g_star

    def test_deterministic_given_seed(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=29)
        out1 = run_experiment(config_from_dict(dict(doc)))
        bytes1 = open(out1.output, "rb").read()
        out2 = run_experiment(config_from_dict(dict(doc)))
        bytes2 = open(out2.output, "rb").read()
        assert bytes1 == bytes2

    def test_explicit_empty_switches_reproduces_hold(self, tmp_path):
        sigma = [0.48, 0.52]
        doc = _switch_doc(
            tmp_path,
            switch={"initial_sigma": sigma, "switch_steps": []},
        )
        cfg = config_from_dict(doc)
        result = run_experiment(cfg)
        start = equilibrium_state(Strategy(np.asarray(sigma)), cfg.coefficients,
                                  replace(cfg.params, prices=cfg.prices.at(1)))
        records = run_hold(start, cfg.params, cfg.coefficients, cfg.prices, cfg.steps)
        hold = format_trace(records, cfg.params.sectors)[0] + "\n"
        assert open(result.output, "rb").read() == hold.encode()

    @pytest.mark.parametrize("experiment", ["switch", "evolve"])
    def test_failed_chart_writes_nothing(self, tmp_path, monkeypatch, experiment):
        def fail(*args, **kwargs):
            raise DomainError("chart points must be finite")

        monkeypatch.setattr(experiments, "emit_svg", fail)
        doc = _switch_doc(tmp_path, experiment=experiment, steps=5, emit_svg=True,
                          evolution={"population_size": 4, "observation_sample": 2})
        with pytest.raises(DomainError, match="chart points"):
            run_experiment(config_from_dict(doc))
        assert os.listdir(tmp_path) == []

    def test_failed_lazy_row_removes_every_file(self, tmp_path, monkeypatch):
        # landscape's rows fail after its header is written and every file is open
        def fail(*args, **kwargs):
            raise DomainError("row failed")

        monkeypatch.setattr(experiments, "_log_response", fail)
        doc = {"experiment": "landscape", "economy": {"alphas": [0.5, 0.5]},
               "landscape": {"samples": 3}, "output": str(tmp_path / "l.csv")}
        with pytest.raises(DomainError, match="row failed"):
            run_experiment(config_from_dict(doc))
        assert os.listdir(tmp_path) == []

    def test_failed_lazy_evolve_row_removes_every_file(self, tmp_path, monkeypatch):
        # evolve's rows are a generator too: they fail after its header is written
        def fail(*args, **kwargs):
            raise DomainError("row failed")

        doc = _switch_doc(tmp_path, experiment="evolve", steps=5,
                          evolution={"population_size": 4, "observation_sample": 2})
        cfg = config_from_dict(doc)
        rows = experiments.evolve_experiment(cfg)[0]
        assert isinstance(rows, Iterator) and not isinstance(rows, list)
        monkeypatch.setattr(experiments, "_income", fail)
        with pytest.raises(DomainError, match="row failed"):
            run_experiment(cfg)
        assert os.listdir(tmp_path) == []


class TestEvolveExperiment:
    def test_population_csv_schema(self, tmp_path):
        doc = {
            "experiment": "evolve",
            "steps": 20,
            "seed": 7,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"population_size": 6, "observation_sample": 2},
            "output": str(tmp_path / "pop.csv"),
        }
        result = run_experiment(config_from_dict(doc))
        lines = open(result.output).read().splitlines()
        assert lines[0] == (
            "step,agent_id,income,log_income,growth,equilibrium_growth,sigma_0,sigma_1"
        )
        # steps 0..20 inclusive, 6 agents each
        assert len(lines) == 1 + 21 * 6
        assert lines[1].split(",")[0] == "0"

    def test_deterministic(self, tmp_path):
        doc = {
            "experiment": "evolve",
            "steps": 30,
            "seed": 13,
            "economy": {"alphas": [0.5, 0.5]},
            "evolution": {"population_size": 8, "observation_sample": 3,
                          "imitation_probability": 0.2},
            "output": str(tmp_path / "pop.csv"),
        }
        r1 = run_experiment(config_from_dict(dict(doc)))
        b1 = open(r1.output, "rb").read()
        r2 = run_experiment(config_from_dict(dict(doc)))
        assert open(r2.output, "rb").read() == b1

    @staticmethod
    def scheduled_doc(tmp_path, steps, rows):
        return {
            "experiment": "evolve", "steps": steps, "seed": 3,
            "economy": {"alphas": [0.4, 0.6], "prices": [1.0, 1.0]},
            "price_schedule": rows,
            "evolution": {"population_size": 8, "observation_sample": 3,
                          "imitation_probability": 0.3},
            "output": str(tmp_path / f"pop_{steps}.csv"),
        }

    def test_each_price_row_is_checked_once(self, tmp_path, monkeypatch):
        # three rows: the run checks each once, however many steps it takes
        check, calls = core._check_prices, []

        def counted(*args):
            calls.append(args)
            return check(*args)

        for module in (core, equilibrium, dynamics):
            monkeypatch.setattr(module, "_check_prices", counted)
        rows = [[1.0, 1.0], [1.2, 0.9], [0.8, 1.1]]
        counts = []
        for steps in (40, 80):
            cfg = config_from_dict(self.scheduled_doc(tmp_path, steps, rows))
            calls.clear()
            experiments.evolve_experiment(cfg)
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_schedule_off_the_economy_prices_matches_a_reference_loop(self, tmp_path):
        # row 1 differs from economy.prices; every agent is annotated every step
        rows = [[1.3, 0.7], [1.3, 0.7], [0.9, 1.2], [1.1, 1.0]]
        cfg = config_from_dict(self.scheduled_doc(tmp_path, 30, rows))
        params, c, evo = cfg.params, cfg.coefficients, cfg.evolution
        assert not np.array_equal(cfg.prices.at(1), params.prices)
        lines = [trace_header(2).replace("excess_growth,", "")]
        pop, imitations = init_population(replace(params, prices=cfg.prices.at(1)), c, evo), 0
        for t in range(cfg.steps + 1):
            row = replace(params, prices=cfg.prices.at(max(t, 1)))
            if t >= 1:
                pop = evolve_step(pop, row, c, evo)
                imitations += int((pop.parents >= 0).sum())
            for i, s in enumerate(pop.strategies):
                y, g = float(pop.log_income[i]), float(pop.growth[i])
                g_star = equilibrium_growth(s, c, row)
                values = [_income(y), y, g, g_star, *s.weights]
                lines.append(f"{t},{i}," + ",".join(map(fmt17, values)))
        run_experiment(cfg)
        assert open(cfg.output_path).read().split("\n") == [*lines, ""]
        assert imitations > 0

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_response_chart_and_rows_match_a_reference_loop(self, tmp_path, monkeypatch, rule):
        # the driver batches g* and the response; the reference takes the public
        # closed forms per agent and step, on three price rows, one zero alpha
        levels = [[1.0, 1.0, 1.0], [1.3, 0.8, 0.7], [0.9, 1.2, 1.1]]
        doc = self.scheduled_doc(tmp_path, 40, [levels[0]] * 12 + [levels[1]] * 14 + [levels[2]])
        doc["economy"] = {"alphas": [0.3, 0.0, 0.7], "prices": [1.0, 1.0, 1.0]}
        doc["evolution"]["selection_rule"] = rule
        cfg = config_from_dict({**doc, "emit_svg": True})
        charts = []
        monkeypatch.setattr(experiments, "emit_svg",
                            lambda series, **kwargs: charts.append(series) or "")
        run_experiment(cfg)
        params, c, evo = cfg.params, cfg.coefficients, cfg.evolution
        assert cfg.prices.change_steps(cfg.steps) == [13, 27]
        lines, points = [trace_header(3).replace("excess_growth,", "")], []
        pop, imitations = init_population(replace(params, prices=cfg.prices.at(1)), c, evo), 0
        for t in range(cfg.steps + 1):
            row = replace(params, prices=cfg.prices.at(max(t, 1)))
            if t >= 1:
                pop = evolve_step(pop, row, c, evo)
                imitations += int((pop.parents >= 0).sum())
            points.append((t, float(np.mean([response(s, c) for s in pop.strategies]))))
            for i, s in enumerate(pop.strategies):
                y, g = float(pop.log_income[i]), float(pop.growth[i])
                values = [_income(y), y, g, equilibrium_growth(s, c, row), *s.weights]
                lines.append(f"{t},{i}," + ",".join(map(fmt17, values)))
        assert charts == [[("mean response", points)]]
        assert open(cfg.output_path).read().split("\n") == [*lines, ""]
        assert imitations > 0


class TestLandscapeExperiment:
    def test_rows_and_schema(self, tmp_path):
        doc = {
            "experiment": "landscape",
            "economy": {"alphas": [0.3, 0.7]},
            "landscape": {"samples": 25},
            "seed": 5,
            "output": str(tmp_path / "land.csv"),
        }
        result = run_experiment(config_from_dict(doc))
        lines = open(result.output).read().splitlines()
        assert lines[0] == "sigma_0,sigma_1,response,equilibrium_growth"
        assert len(lines) == 26
        # response is maximal near sigma == alpha
        best = max(float(l.split(",")[2]) for l in lines[1:])
        assert best <= 0.3**0.3 * 0.7**0.7 + 1e-12


# overrides of _switch_doc for the closure test; the first three set every
# key of their section, the last is the --config document of a CLI run
CLOSURE_CASES = {
    "switch": {
        "seed": 5,
        "steps": 60,
        "switch": {
            "initial_sigma": [0.3, 0.7],
            "switch_steps": [10, 40],
            "switch_sigmas": [[0.6, 0.4], [0.5, 0.5]],
            "mutation_sd": 0.03,
            "min_switches": 1,
            "max_switches": 3,
        },
        "price_schedule": [[1.0, 1.0], [1.1, 0.9]],
    },
    "evolve": {
        "experiment": "evolve",
        "steps": 20,
        "evolution": {
            "population_size": 6,
            "imitation_error_sd": 0.05,
            "imitation_probability": 0.2,
            "selection_rule": "growth-proportional",
            "observation_sample": 3,
            "seed": 8,
        },
        "emit_svg": True,
    },
    "landscape": {
        "experiment": "landscape",
        "economy": {"alphas": [0.2, 0.8], "scaling": 0.1},
        "target_growth": None,
        "landscape": {"samples": 40},
        "steps_per_year": 4.0,
    },
    "cli": {
        "experiment": "evolve",
        "steps": 5,
        "evolution": {"population_size": 5, "observation_sample": 2},
    },
}


class TestConfigClosure:
    def test_effective_config_reproduces_results(self, tmp_path):
        doc = _switch_doc(tmp_path, seed=37)
        cfg = config_from_dict(doc)
        result = run_experiment(cfg)
        original = open(result.output, "rb").read()
        effective = os.path.splitext(result.output)[0] + ".config.json"
        cfg2 = load_config(effective)
        # redirect the rerun so the first output survives the comparison
        from dataclasses import replace

        cfg2 = replace(cfg2, output_path=str(tmp_path / "rerun.csv"))
        result2 = run_experiment(cfg2)
        assert open(result2.output, "rb").read() == original


    @pytest.mark.parametrize("case", ["switch", "evolve", "landscape", "cli"])
    def test_effective_config_reloads_equal(self, tmp_path, case):
        doc = _switch_doc(tmp_path, **CLOSURE_CASES[case])
        if case == "cli":
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(doc))
            argv = ["evolve", "--config", str(cfg_path), "--alpha", "0.3,0.7",
                    "--population", "7", "--seed", "4", "--steps", "12"]
            assert cli_main(argv) == 0
            # the same overrides written into the document by hand
            doc.update(steps=12, seed=4)
            doc["economy"] = dict(doc["economy"], alphas=[0.3, 0.7])
            doc["evolution"] = dict(doc["evolution"], population_size=7, seed=4)
            expected = config_from_dict(doc)
        else:
            expected = config_from_dict(doc)
            run_experiment(expected)
        stem = os.path.splitext(expected.output_path)[0]
        cfg = load_config(stem + ".config.json")
        assert cfg == expected
        rerun = run_experiment(replace(cfg, output_path=str(tmp_path / "rerun.csv")))
        original = open(expected.output_path, "rb").read()
        assert open(rerun.output, "rb").read() == original


class TestWriteTraceCsv:
    def test_round_trip_values(self):
        records = [
            TraceRecord(1, 0, 1.0185, 0.0185, 0.0185, 0.0, (0.5, 0.5), np.log(1.0185)),
            TraceRecord(2, 0, 1 / 3, -0.03, 0.001, -0.031, (0.25, 0.75), np.log(1 / 3)),
        ]
        lines = format_trace(records, 2)[0].splitlines()
        row = lines[2].split(",")
        assert float(row[2]) == 1 / 3
        assert float(row[3]) == np.log(1 / 3)
        assert float(row[7]) == 0.25


#: floats a trace can hold: income inf past float range or 0 once absorbed,
#: log income -inf once absorbed, and both signs of zero
trace_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)


@st.composite
def trace_records(draw):
    """(sectors, records) in runs: each run has a g* object of its own, and a
    new strategy tuple object only where it switches, so a price change
    moves g* while sigma's tuple object stays the same."""
    n = draw(st.integers(1, 6))
    records, sigma = [], None
    for length, switch in draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                                        min_size=1, max_size=6)):
        if sigma is None or switch:
            sigma = tuple(draw(st.lists(trace_values, min_size=n, max_size=n)))
        g_star = draw(trace_values)
        for _ in range(length):
            income, log_income, growth, excess = (draw(trace_values) for _ in range(4))
            records.append(TraceRecord(len(records) + 1, 0, income, growth, g_star,
                                       excess, sigma, log_income))
    return n, records


@settings(max_examples=60, deadline=None)
@given(drawn=trace_records())
def test_trace_and_panel_csvs_match_per_field_formatting(drawn):
    n, records = drawn
    trace, panels = format_trace(records, n)
    [growth], [excess] = panels[".growth.csv"], panels[".excess.csv"]
    want = [trace_header(n)] + [",".join([
        str(r.step), str(r.agent_id), *map(fmt17, (r.income, r.log_income, r.growth,
                                                   r.equilibrium_growth, r.excess_growth,
                                                   *r.strategy))]) for r in records]
    assert trace == "\n".join(want)
    want = ["step,growth,equilibrium_growth"] + [
        f"{r.step},{fmt17(r.growth)},{fmt17(r.equilibrium_growth)}" for r in records]
    assert growth == "\n".join(want)
    want = ["step,excess_growth"] + [f"{r.step},{fmt17(r.excess_growth)}" for r in records]
    assert excess == "\n".join(want)


def test_trace_csv_of_no_records_is_its_header():
    assert format_trace([], 2)[0] == trace_header(2)


def _polylines_by_scalar_formula(series):
    """Each series' polyline points, as the chart computed them one point
    at a time: the reference for the array computation.  None where an axis
    spans less than a normal float, which the chart rejects."""
    xs = [float(x) for _, pts in series for x, _ in pts]
    ys = [float(y) for _, pts in series for _, y in pts]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = (y_hi - y_lo) * 0.05
    if pad == 0.0:
        pad = max(abs(y_lo) * 0.1, 1e-6)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if min(x_hi - x_lo, y_hi - y_lo) < sys.float_info.min:
        return None
    return [" ".join(
        f"{72 + (float(x) - x_lo) / (x_hi - x_lo) * 672:.2f},"
        f"{34 + (y_hi - float(y)) / (y_hi - y_lo) * 300:.2f}"
        for x, y in pts) for _, pts in series]


chart_values = st.floats(-1e300, 1e300)


@st.composite
def chart_series(draw):
    """1-3 series of 1-40 points, some constant in y, x integer or float."""
    series = []
    for k in range(draw(st.integers(1, 3))):
        xs = draw(st.lists(st.one_of(st.integers(-10**6, 10**6), chart_values),
                           min_size=1, max_size=40))
        if draw(st.booleans()):
            ys = [draw(chart_values)] * len(xs)
        else:
            ys = draw(st.lists(chart_values, min_size=len(xs), max_size=len(xs)))
        series.append((f"s{k}", list(zip(xs, ys))))
    return series


@settings(max_examples=80, deadline=None)
@given(series=chart_series())
def test_svg_polylines_match_scalar_formula(series):
    want = _polylines_by_scalar_formula(series)
    if want is None:
        with pytest.raises(DomainError, match="normal float"):
            emit_svg(series)
        return
    got = re.findall(r'<polyline points="([^"]*)"', emit_svg(series))
    assert got == want
