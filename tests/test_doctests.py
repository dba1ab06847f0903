"""Run the documented examples of the path-search stack as tests.

The module docstrings of ``droute.pathsearch`` and ``droute.future_cost``
carry runnable examples (interval vs node search, future-cost admissibility);
executing them in CI keeps the documentation honest.
"""

import doctest

import repro.droute.future_cost
import repro.droute.pathsearch


def _run(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0, f"{module.__name__} doctests failed"


def test_pathsearch_doctests():
    _run(repro.droute.pathsearch)


def test_future_cost_doctests():
    _run(repro.droute.future_cost)
