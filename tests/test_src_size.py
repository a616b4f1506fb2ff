"""tools/src_size.py: its line and statement counts, for a revision or the
working tree."""

import importlib.util
import os

from test_bench_pair import _git

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_size.py")


def load_src_size():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_joined_statements_count_once_each(tmp_path, capsys):
    src_size = load_src_size()
    (tmp_path / "a.py").write_text("x = 1\nif x:\n    y = 2; z = 3\n")
    (tmp_path / "b.py").write_text('"""Doc."""\n\n\ndef f():\n    return 1\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    found = src_size.sizes(str(tmp_path))
    # a.py: x = 1, the if, and the two assignments joined on one line under it
    assert found == {"a.py": (3, 4), "b.py": (5, 3)}
    src_size.report(found)
    assert capsys.readouterr().out.splitlines() == [
        "module   lines  statements",
        "a.py         3           4",
        "b.py         5           3",
        "total        8           7",
    ]


def test_revision_and_working_tree(tmp_path, monkeypatch, capsys):
    src_size = load_src_size()
    repo = tmp_path / "repo"
    package = repo / "src" / "growthlab"
    package.mkdir(parents=True)
    _git(repo, "init", "-q")
    (package / "m.py").write_text("a = 1\nb = 2\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    (package / "m.py").write_text("a = 1\n")
    monkeypatch.chdir(package)  # any directory inside the checkout
    assert src_size.main(["HEAD"]) == 0
    at_head = capsys.readouterr().out.splitlines()
    assert at_head[0].startswith(os.path.join("src", "growthlab") + " at ")
    assert at_head[-1].split() == ["total", "2", "2"]
    assert src_size.main([]) == 0
    working = capsys.readouterr().out.splitlines()
    assert working[0] == os.path.join("src", "growthlab") + " in the working tree"
    assert working[-1].split() == ["total", "1", "1"]
    assert _git(repo, "stash", "list") == ""
