"""The package's public surface: its exports and README's library example."""

import contextlib
import inspect
import io
import os
import re

import growthlab

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_export_resolves_once():
    names = growthlab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(growthlab, name) for name in names)
    # and nothing is imported into the package without being exported
    imported = {name for name, value in vars(growthlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == set(names)


def test_readme_library_example_prints_a_positive_excess_growth():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert float(out.getvalue()) > 0.0
