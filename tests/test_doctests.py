"""Run the library's docstring examples as tests.

Several modules carry executable usage examples in their docstrings;
this keeps them honest.
"""

from __future__ import annotations

import doctest

import pytest

import repro.api
import repro.core.seqspace
import repro.simulator.engine
import repro.simulator.rng

MODULES = [
    repro.api,
    repro.simulator.engine,
    repro.simulator.rng,
    repro.core.seqspace,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.IGNORE_EXCEPTION_DETAIL,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
