"""Run the executable examples embedded in docstrings.

The package quickstarts (``repro``, ``repro.sweep``) and the trace
codec's record layout example are part of the documentation contract;
they must keep working verbatim.
"""

import doctest

import pytest

import repro
import repro.serialize
import repro.sweep
import repro.trace.encode
import repro.utils.registry


@pytest.mark.parametrize("module", [repro.trace.encode, repro,
                                    repro.serialize, repro.sweep,
                                    repro.utils.registry],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, \
        f"no doctests collected in {module.__name__}"
    assert result.failed == 0
