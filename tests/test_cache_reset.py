"""Every in-process cache empties through its package's ``dir()``.

A cold measurement starts the way a fresh process does: the benchmark
(``bench/workloads.py:clear_caches``) calls every ``clear_*`` function
that ``dir()`` lists on ``repro.isdl``, ``repro.lint``,
``repro.symbolic`` and ``repro.semantics``.  Those packages resolve
their names on first access, so a ``dir()`` that dropped one of the
four would leave its cache warm and make every "cold" run fast.
"""

import importlib

import pytest

from repro import api

#: package -> the function that empties its cache.
CLEARS = {
    "repro.isdl": "clear_caches",
    "repro.lint": "clear_lint_cache",
    "repro.symbolic": "clear_prove_cache",
    "repro.semantics": "clear_vector_cache",
}


@pytest.mark.parametrize("package, name", CLEARS.items(), ids=list(CLEARS))
def test_dir_lists_the_clear_function(package, name):
    assert name in dir(importlib.import_module(package))


def test_each_clear_empties_what_it_names():
    from repro.isdl import cache_stats
    from repro.lint.engine import _CONTENT_CACHE
    from repro.semantics import vector_cache_stats
    from repro.symbolic.prover import _PROVE_CACHE

    def sizes():
        return {
            "repro.isdl": sum(memo["entries"] for memo in cache_stats().values()),
            "repro.lint": len(_CONTENT_CACHE),
            "repro.symbolic": len(_PROVE_CACHE),
            "repro.semantics": vector_cache_stats()["entries"],
        }

    # A symbolic verify parses, lints, proves and runs kernels.
    assert api.verify("scasb_rigel", trials=8, symbolic=True).ok
    assert all(sizes().values()), sizes()
    for package, name in CLEARS.items():
        getattr(importlib.import_module(package), name)()
        assert sizes()[package] == 0, name
