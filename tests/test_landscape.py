"""The landscape driver on arrays, checked against the per-sample path.

``growthlab landscape`` draws every sample at once and computes response
and equilibrium growth row by row.  Its rows must equal, character for
character, a replay that draws one sample at a time from the same stream
and calls ``project_to_simplex``, ``response`` and ``equilibrium_growth``.
Every check runs before the output is opened, so a failed run writes
nothing.  Strategy order is set by the response alone: sorting the rows by
response also sorts their equilibrium growth, at any prices, scaling and
deprecation.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import DomainError, equilibrium_growth, project_to_simplex, response
from growthlab import experiments
from growthlab.config import config_from_dict
from growthlab.evolution import experiment_stream
from growthlab.experiments import fmt17, run_experiment


@st.composite
def landscape_docs(draw):
    """A landscape run: 1-6 sectors, zero alphas, non-unit prices, any seed."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
                            min_size=n, max_size=n).filter(lambda w: sum(w) > 0.0))
    alphas = (np.array(weights) / sum(weights)).tolist()
    prices = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    return {
        "experiment": "landscape",
        "seed": draw(st.integers(0, 2**32)),
        "economy": {
            "alphas": alphas,
            "prices": prices,
            "deprecation": draw(st.floats(0.01, 1.0)),
            "scaling": draw(st.floats(0.05, 10.0)),
        },
        "landscape": {"samples": draw(st.integers(1, 40))},
    }


def run_landscape(doc: dict) -> list[str]:
    """Rows of the landscape CSV written for ``doc``, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "landscape.csv")
        run_experiment(config_from_dict(dict(doc, output=out)))
        with open(out, encoding="utf-8") as fh:
            return fh.read().splitlines()


def replay(doc: dict) -> list[str]:
    """The landscape rows computed one sample at a time."""
    cfg = config_from_dict(doc)
    rng = experiment_stream(cfg.seed)
    ones = np.ones(cfg.params.sectors)
    params = replace(cfg.params, prices=cfg.prices.at(1))
    rows = []
    for _ in range(cfg.landscape.samples):
        sigma = project_to_simplex(rng.dirichlet(ones))
        resp = response(sigma, cfg.coefficients)
        g_star = equilibrium_growth(sigma, cfg.coefficients, params)
        rows.append(",".join(fmt17(x) for x in [*sigma.weights, resp, g_star]))
    return rows


@settings(max_examples=40, deadline=None)
@given(doc=landscape_docs())
def test_rows_equal_per_sample_replay(doc):
    lines = run_landscape(doc)
    assert lines[1:] == replay(doc)


def test_rows_equal_replay_across_blocks():
    # rows are written in blocks of 2048; 4,500 samples end mid-block
    doc = {
        "experiment": "landscape",
        "seed": 5,
        "economy": {"alphas": [0.4, 0.0, 0.6], "prices": [1.5, 1.0, 0.8]},
        "landscape": {"samples": 4500},
    }
    lines = run_landscape(doc)
    assert len(lines) == 4501
    assert lines[1:] == replay(doc)


@settings(max_examples=40, deadline=None)
@given(doc=landscape_docs())
def test_order_set_by_response_alone(doc):
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in run_landscape(doc)[1:]])
    resp, g_star = rows[:, -2], rows[:, -1]
    by_response = np.argsort(resp, kind="stable")
    # equal responses give equal growth; otherwise the order is kept up to
    # the rounding of two different log-domain sums
    assert (np.diff(g_star[by_response]) >= -1e-12).all()


def test_failed_check_writes_nothing(tmp_path, monkeypatch):
    class NanDraws:
        def dirichlet(self, alpha, size):
            draws = np.random.default_rng(0).dirichlet(alpha, size=size)
            draws[size // 2] = np.nan
            return draws

    monkeypatch.setattr(experiments, "experiment_stream", lambda seed: NanDraws())
    out = tmp_path / "landscape.csv"
    doc = {
        "experiment": "landscape",
        "economy": {"alphas": [0.3, 0.7]},
        "landscape": {"samples": 5000},
        "output": str(out),
    }
    with pytest.raises(DomainError, match="projection input must be finite"):
        run_experiment(config_from_dict(doc))
    assert list(tmp_path.iterdir()) == []
