"""tools/same_bytes.py: its comparison of two output directories."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_bytes.py")


def load_same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text)


def test_compare_names_each_path_by_verdict(tmp_path, capsys):
    same_bytes = load_same_bytes()
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"equal.csv": b"1\n", "run/differs.csv": b"1\n", "missing.pkl": b"x"})
    _write(change, {"equal.csv": b"1\n", "run/differs.csv": b"1\r\n", "extra.svg": b""})
    verdicts = same_bytes.compare(str(parent), str(change))
    assert verdicts == {
        "same": ["equal.csv"],
        "differ": [os.path.join("run", "differs.csv")],
        "only in parent": ["missing.pkl"],
        "only in change": ["extra.svg"],
    }
    assert same_bytes.report(verdicts) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "4 files: 1 same, 1 differ, 1 only in parent, 1 only in change",
        f"differ: {os.path.join('run', 'differs.csv')}",
        "only in parent: missing.pkl",
        "only in change: extra.svg",
    ]


def test_equal_directories_pass(tmp_path, capsys):
    same_bytes = load_same_bytes()
    files = {"a.csv": b"1\n", "b/c.pkl": b"\x00"}
    _write(tmp_path / "parent", files)
    _write(tmp_path / "change", files)
    verdicts = same_bytes.compare(str(tmp_path / "parent"), str(tmp_path / "change"))
    assert same_bytes.report(verdicts) == 0
    assert capsys.readouterr().out == (
        "2 files: 2 same, 0 differ, 0 only in parent, 0 only in change\n")


def test_summary_reads_one_verdict_line_per_dispatch(capsys):
    same_bytes = load_same_bytes()
    all_same = {"same": ["a.csv"], "differ": [], "only in parent": [], "only in change": []}
    one_differs = {**all_same, "differ": ["b.csv"]}
    avx512 = {"differ": 51, "libm": False}
    libm = {"differ": 0, "libm": True}
    assert same_bytes.summary({"default": (avx512, all_same), "X86_V3": (libm, all_same)}) == 0
    assert same_bytes.summary({"default": (avx512, all_same), "X86_V3": (libm, one_differs)}) == 1
    # on a host without AVX-512 both runs take libm's exp, and the second says so
    assert same_bytes.summary({"default": (libm, one_differs), "X86_V3": (libm, all_same)}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "default dispatch (51 exp probe values off libm): all same",
        "X86_V3 dispatch (0 exp probe values off libm): all same",
        "default dispatch (51 exp probe values off libm): all same",
        "X86_V3 dispatch (0 exp probe values off libm): NOT all same",
        "default dispatch (0 exp probe values off libm): NOT all same",
        "X86_V3 dispatch (0 exp probe values off libm): all same; "
        "the run before had libm's exp too, so the same target",
    ]
