"""The batch runner's pre-fork cache warm-up.

``run_batch`` calls :func:`preload_caches` in the parent before its
pool forks, so every worker inherits warm parse and kernel caches.  A
shard that still has to parse or lower something reports it as
``cache_misses``; these tests pin that count at zero.
"""

from repro.analysis.runner import (
    _clear_replay_cache,
    _replay,
    execute_shard,
    plan_jobs,
    preload_caches,
    resolve_names,
)
from repro.semantics import clear_vector_cache, compile_vectorized, vector_cache_stats

NAMES = ["scasb_rigel", "movsb_pascal", "locc_clu"]


def test_preload_lowers_both_final_descriptions_of_every_entry():
    entries = resolve_names(NAMES)
    specs = plan_jobs(entries, 40, 11, True, "vectorized")
    _clear_replay_cache()
    clear_vector_cache()
    preload_caches(specs)
    misses = vector_cache_stats()["misses"]
    for entry in entries:
        _, outcome = _replay(entry.name)
        compile_vectorized(outcome.binding.final_operator)
        compile_vectorized(outcome.binding.augmented_instruction)
    assert vector_cache_stats()["misses"] == misses
    records = [execute_shard(spec) for spec in specs]
    assert [record["error"] for record in records] == [None] * len(specs)
    assert [record["cache_misses"] for record in records] == [0] * len(specs)
