#!/usr/bin/env python3
"""Re-check the hand mutants: each must still be killed by its test.

    python3 tools/mutants.py [--rev REV] [NAME ...]

Every ``tests/mutants/<name>.patch`` is a deliberate bug: a unified diff
against the source tree, preceded by a header naming what it breaks and
the test that must catch it::

    Mutant: settle skipped before a checkpoint is built
    Killed-by: tests/test_receiver_runs.py::test_three_paths_agree

The tree is exported once into a temporary directory — the index (what
``git add -A`` staged) by default, ``git archive REV`` with ``--rev``.
Each patch is applied there with ``git apply`` and reverted with ``git
apply -R`` when its tests are done, and its ``Killed-by`` test ids run in
one ``python -m pytest`` process, each id's outcome read from the
``--junitxml`` report.  The mutant is *killed* when every id fails (has
a failing test); once one of an id's tests has failed, the id's other
tests are skipped, as ``-x`` would for the id alone, and a failing
property is not shrunk (this file is also that pytest plugin).  A patch that no longer applies is reported as
stale, and so is one with an id that runs no test (a renamed or deleted
test is not a kill).  Exit status 1 if any mutant survives or is stale.
Nothing in the working tree is touched.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MUTANTS = REPO / "tests" / "mutants"


def export(rev: str | None, target: Path) -> None:
    """A clean copy of *rev* (of the index when None) at *target*."""
    target.mkdir()
    if rev is None:
        subprocess.run(["git", "checkout-index", "-a", f"--prefix={target}/"],
                       cwd=REPO, check=True)
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def header(patch: Path) -> tuple[str, list[str]]:
    """The patch's ``Mutant:`` description and ``Killed-by:`` test ids."""
    what, killers = patch.stem, []
    for line in patch.read_text().splitlines():
        if line.startswith("diff --git"):
            break
        if line.startswith("Mutant:"):
            what = line.split(":", 1)[1].strip()
        elif line.startswith("Killed-by:"):
            killers.append(line.split(":", 1)[1].strip())
    return what, killers


def owner(nodeid: str, ids: list[str]) -> str | None:
    """The test id among *ids* that the test *nodeid* belongs to."""
    for test in ids:
        if nodeid == test or nodeid.startswith((f"{test}::", f"{test}[")):
            return test
    return None


def failed_ids(report: Path, ids: list[str]) -> tuple[set[str], set[str]]:
    """From a ``--junitxml`` *report*: the ids with a failing test, and
    the ids that ran any test at all."""
    dotted = {test: test.replace(".py::", "::").replace("/", ".").replace("::", ".")
              for test in ids}
    failed, ran = set(), set()
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            name = f"{case.get('classname')}.{case.get('name')}"
            for test, key in dotted.items():
                if name == key or name.startswith((f"{key}.", f"{key}[")):
                    ran.add(test)
                    if case.find("failure") is not None or case.find("error") is not None:
                        failed.add(test)
    return failed, ran


def check(patch: Path, tree: Path) -> tuple[str, str]:
    """``(verdict, detail)`` for one mutant: killed, survived or stale."""
    what, killers = header(patch)
    if not killers:
        return "stale", "no Killed-by line"
    applied = subprocess.run(["git", "apply", str(patch)], cwd=tree,
                             capture_output=True, text=True)
    if applied.returncode:
        return "stale", applied.stderr.strip().splitlines()[0]
    report = tree / "mutant-report.xml"
    try:
        env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}tools",
                   PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants",
             f"--junitxml={report}", *killers],
            cwd=tree, env=env, capture_output=True, text=True)
        failed, ran = failed_ids(report, killers)
    finally:
        report.unlink(missing_ok=True)
        subprocess.run(["git", "apply", "-R", str(patch)], cwd=tree, check=True)
    idle = [test for test in killers if test not in ran]
    if idle:
        return "stale", "no test collected: " + ", ".join(idle)
    survivors = [test for test in killers if test not in failed]
    if survivors:
        return "survived", "passes " + ", ".join(survivors)
    return "killed", what


# -- as a pytest plugin (``-p mutants``) ------------------------------------------

_ids: list[str] = []
_failed: set[str] = set()


def pytest_configure(config) -> None:
    from hypothesis import Phase, settings

    _ids[:] = config.args
    # A kill needs a failing example, not the smallest one: the tier-1
    # profile (``tests/conftest.py``, loaded by now) without shrinking.
    settings.register_profile("mutants", settings.get_profile("tier1"),
                              phases=[phase for phase in Phase if phase is not Phase.shrink])
    settings.load_profile("mutants")


def pytest_runtest_setup(item) -> None:
    if owner(item.nodeid, _ids) in _failed:
        import pytest
        pytest.skip("another test of this Killed-by id has failed")


def pytest_runtest_logreport(report) -> None:
    if report.failed:
        _failed.add(owner(report.nodeid, _ids))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="export this revision instead of the index")
    parser.add_argument("names", nargs="*", help="mutants to check (default: all)")
    args = parser.parse_args(argv)
    patches = sorted(MUTANTS.glob("*.patch"))
    if args.names:
        patches = [patch for patch in patches if patch.stem in args.names]
    if not patches:
        print("no mutants found", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        export(args.rev, tree)
        for patch in patches:
            verdict, detail = check(patch, tree)
            failed += verdict != "killed"
            print(f"{verdict:<9}{patch.stem:<44}{detail}", flush=True)
    print(f"{len(patches) - failed}/{len(patches)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
