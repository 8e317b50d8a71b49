"""Unit tests for the tooling around the repo benchmark
(``python3 -m bench``): the stamp its records carry and the
``tools/bench_pairs.py`` counts comparison and claim verdicts; and the
verdicts of ``tools/mutants.py``.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from repro.simulator.engine import engine_backend


def test_engine_backend_is_stamped_somewhere_real():
    """The stamp ``bench/run.py`` records must be the live selector."""
    assert engine_backend() in ("pure", "compiled")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def load_bench_pairs():
    return load_tool("bench_pairs")


def test_bench_pairs_counts_may_differ_only_where_named():
    """``tools/bench_pairs.py --counts-may-differ``: a named key may
    move (and is reported if it did not); any other key fails the run."""
    compare = load_bench_pairs().compare_counts

    parent = "counts events=618271 frames=158646 peak_heap=16065 retransmissions=6"
    change = "counts events=532273 frames=158646 peak_heap=16065 retransmissions=6"
    named = frozenset({"events", "peak_heap"})

    same, report = compare(parent, parent)
    assert same and report == [f"counts identical on both sides: {parent}"]
    same, report = compare(parent, change)
    assert not same and report[0] == "COUNTS DIFFER in events"
    same, report = compare(parent, change, named)
    assert same
    assert "  events: 618271 → 532273" in report
    assert "  peak_heap: 16065 on both sides (allowed to differ, did not)" in report
    same, report = compare(parent, change.replace("frames=158646", "frames=158647"), named)
    assert not same and report[0] == "COUNTS DIFFER in frames"
    same, _ = compare(parent, change + " extra=1", named)
    assert not same


def test_bench_pairs_claim_verdicts_on_canned_runs(capsys):
    """``tools/bench_pairs.py --claim``: the claimed metric holds only
    when ahead in >= 9/10 pairs by more than the parent's IQR; every
    other metric is within bound, worse (exit 1) or unresolved; a live
    workload's per-run retransmissions are listed, not just skipped."""
    summarize = load_bench_pairs().summarize
    spec = {"end_to_end": [
        {"name": "cpu_us", "unit": "us", "better": "lower", "bound": 0.2},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.05},
    ]}

    def side(cpu, rate, p50, rss, retransmissions):
        return [{"counts": f"counts datagrams={4600 + r} retransmissions={r}", "failed": 0,
                 "attempted": 4511,
                 "metrics": {"cpu_us": c, "rate": f, "p50": l, "rss": m}}
                for c, f, l, m, r in zip(cpu, rate, p50, rss, retransmissions)]

    tens = range(10)
    parent = side(cpu=[260 + i for i in tens], rate=[585.0] * 10,
                  p50=[2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0],
                  rss=[52.0] * 10, retransmissions=[11, 0, 3, 7, 2, 9, 4, 1, 0, 5])
    runs = {"parent": parent,
            "change": side(cpu=[180 + i for i in tens], rate=[585.0] * 10,
                           p50=[2.1, 2.0, 2.0, 2.0, 2.0, 3.1, 3.0, 3.0, 3.0, 3.0],
                           rss=[52.5] * 10, retransmissions=[4, 0, 2, 1, 0, 6, 3, 1, 0, 2])}

    assert summarize(spec, runs) == 0  # no claim: the table only
    assert "verdicts" not in capsys.readouterr().out

    assert summarize(spec, runs, claim="cpu_us") == 0
    out = capsys.readouterr().out
    assert "  cpu_us: CLAIM holds: ahead in 10/10 pairs (0 tie(s))" in out
    assert "  rate: within bound" in out
    assert "  p50: unresolved (spread wider than bound)" in out  # IQR 1.0 of a median 2.5
    assert "  rss: within bound" in out  # +1% of a 5% bound
    assert "  retransmissions parent: 11 0 3 7 2 9 4 1 0 5" in out
    assert "  retransmissions change: 4 0 2 1 0 6 3 1 0 2" in out
    assert "  datagrams parent: 4611 4600" in out

    # Eight wins of ten is not nine; a lead inside the parent's IQR is not a gain.
    runs["change"] = side(cpu=[180] * 8 + [300, 300], rate=[585.0] * 10, p50=[1.9] * 10,
                          rss=[56.0] * 10, retransmissions=[0] * 10)
    assert summarize(spec, runs, claim="cpu_us") == 1
    out = capsys.readouterr().out
    assert "  cpu_us: CLAIM not resolved: ahead in 8/10 pairs" in out
    assert "  rss: worse by more than bound" in out
    assert "  p50: within bound" in out  # every change run below every parent run
    runs["change"] = side(cpu=[258 + i for i in tens], rate=[585.0] * 10, p50=[2.0] * 10,
                          rss=[52.0] * 10, retransmissions=[0] * 10)
    assert summarize(spec, runs, claim="cpu_us") == 1
    assert "CLAIM not resolved: ahead in 10/10 pairs" in capsys.readouterr().out


def test_bench_pairs_change_exports_a_named_revision_like_the_parent(monkeypatch, tmp_path, capsys):
    """``tools/bench_pairs.py --change <rev>``: the change side is that
    revision, exported with the parent's ``git archive`` path (so
    ``--parent X --change X`` is an A/A run); without it, the index."""
    bench_pairs = load_bench_pairs()
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout=b"")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        bench_pairs.export(side, "cdbdb12", tmp_path)
    assert [command[:3] for command in commands[0::2]] == [["git", "archive", "cdbdb12"]] * 2
    assert [command[0] for command in commands[1::2]] == ["tar", "tar"]
    bench_pairs.export("index", None, tmp_path)
    assert commands[-1][:3] == ["git", "checkout-index", "-a"]

    exported = []
    monkeypatch.setattr(bench_pairs, "export",
                        lambda side, rev, root: exported.append((side, rev)) or root / side)
    spec = json.loads((bench_pairs.REPO / "BENCHMARK.json").read_text())
    run = {"counts": "counts frames=1", "failed": 0, "attempted": 1,
           "metrics": {metric["name"]: 1.0 for metric in spec["end_to_end"]}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run)
    arguments = ["--parent", "cdbdb12", "--workload", "sat_clean", "--seed", "7", "--pairs", "1"]
    assert bench_pairs.main([*arguments, "--change", "cdbdb12"]) == 0
    assert exported == [("parent", "cdbdb12"), ("change", "cdbdb12")]
    assert "parent = cdbdb12, change = cdbdb12" in capsys.readouterr().out
    exported.clear()
    assert bench_pairs.main(arguments) == 0
    assert exported == [("parent", "cdbdb12"), ("change", None)]
    assert "change = the index" in capsys.readouterr().out


def test_a_mutant_whose_killer_runs_no_test_is_stale(monkeypatch, tmp_path):
    """``tools/mutants.py``: a ``Killed-by`` id with no test in the
    ``--junitxml`` report (pytest finds none of that name) makes a stale
    mutant, not a kill.  A failing test in every id kills it; an id whose
    tests all pass lets it survive."""
    mutants = load_tool("mutants")
    patch = tmp_path / "renamed-killer.patch"
    patch.write_text("Mutant: a test renamed away\nKilled-by: tests/t.py::test_a\n"
                     "Killed-by: tests/t.py::TestB::test_c\n")
    cases: list = []

    def fake_run(command, **kwargs):  # pytest writes its report; git applies
        for report in (arg[len("--junitxml="):] for arg in command if "--junitxml=" in arg):
            Path(report).write_text("<testsuite>" + "".join(
                f'<testcase classname="{owner}" name="{name}">{"<failure/>" * failed}</testcase>'
                for owner, name, failed in cases) + "</testsuite>")
        return subprocess.CompletedProcess(command, 0, stdout="", stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    verdicts = []
    for c in (True, False):
        cases[:] = [("tests.t", "test_a[x]", True), ("tests.t.TestB", "test_c", c)]
        verdicts.append(mutants.check(patch, tmp_path)[0])
    cases[:] = [("tests.t", "test_ab", True)]
    assert verdicts + [mutants.check(patch, tmp_path)[0]] == ["killed", "survived", "stale"]
    missing = ["tests/test_trace_runs.py::test_no_such_test"]
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={tmp_path / 'missing.xml'}", *missing],
                   cwd=mutants.REPO, capture_output=True)
    assert mutants.failed_ids(tmp_path / "missing.xml", missing) == (set(), set())
