#!/usr/bin/env python3
"""Re-check the hand mutants: each must still be killed by its test.

    python3 tools/mutants.py [--rev REV] [NAME ...]

Every ``tests/mutants/<name>.patch`` is a deliberate bug: a unified diff
against the source tree, preceded by a header naming what it breaks and
the test that must catch it::

    Mutant: settle skipped before a checkpoint is built
    Killed-by: tests/test_receiver_runs.py::test_three_paths_agree

For each patch the tree is exported into a temporary directory — the
index (what ``git add -A`` staged) by default, ``git archive REV`` with
``--rev`` — the patch is applied there with ``git apply``, and each
``Killed-by`` test id is run with ``python -m pytest -x -q``.  The mutant
is *killed* when every one of them fails.  A patch that no longer
applies is reported as stale, and so is one with an id that runs no
test (pytest's exit status 4 or 5: a renamed or deleted test is not a
kill).  Exit status 1 if any mutant survives or is stale.  Nothing in
the working tree is touched.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MUTANTS = REPO / "tests" / "mutants"
# pytest's exit statuses for a usage error (an id naming no test) and
# for no test collected.
NOTHING_RUN = (4, 5)


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


def check(patch: Path, rev: str | None, scratch: Path) -> tuple[str, str]:
    """``(verdict, detail)`` for one mutant: killed, survived or stale."""
    what, killers = header(patch)
    if not killers:
        return "stale", "no Killed-by line"
    tree = scratch / patch.stem
    export(rev, tree)
    applied = subprocess.run(["git", "apply", str(patch)], cwd=tree,
                             capture_output=True, text=True)
    if applied.returncode:
        return "stale", applied.stderr.strip().splitlines()[0]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    survivors = []
    for test in killers:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
            cwd=tree, env=env, capture_output=True, text=True)
        if result.returncode in NOTHING_RUN:
            return "stale", f"no test collected: {test}"
        if result.returncode == 0:
            survivors.append(test)
    if survivors:
        return "survived", "passes " + ", ".join(survivors)
    return "killed", what


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
        for patch in patches:
            verdict, detail = check(patch, args.rev, Path(scratch))
            failed += verdict != "killed"
            print(f"{verdict:<9}{patch.stem:<44}{detail}", flush=True)
    print(f"{len(patches) - failed}/{len(patches)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
