"""Content-keyed lint pre-flight cache: hits across binding objects."""

from repro import obs
from repro.analyses import movsb_pascal
from repro.analysis import RunConfig
from repro.lint import clear_lint_cache, lint_binding
from repro.lint import engine as lint_engine


def fresh_binding():
    outcome = movsb_pascal.run(RunConfig(verify=False))
    assert outcome.succeeded
    return outcome.binding


class TestContentCache:
    def test_reconstructed_binding_hits_the_content_cache(self):
        first, second = fresh_binding(), fresh_binding()
        assert first is not second  # distinct objects, equal content
        lint_engine._BINDING_MEMO.clear()
        clear_lint_cache()
        with obs.collecting() as registry:
            from_miss = lint_binding(first)
            # Drop the id-memo so the second call must go through the
            # content layer (the id-memo would otherwise mask it).
            lint_engine._BINDING_MEMO.clear()
            from_hit = lint_binding(second)
            snapshot = registry.snapshot()
        assert (
            obs.counter_value(
                snapshot, "repro_lint_cache_misses_total", kind="lint"
            )
            == 1
        )
        assert (
            obs.counter_value(
                snapshot, "repro_lint_cache_hits_total", kind="lint"
            )
            == 1
        )
        assert from_miss == from_hit == []

    def test_id_memo_short_circuits_before_the_content_layer(self):
        binding = fresh_binding()
        lint_engine._BINDING_MEMO.clear()
        clear_lint_cache()
        lint_binding(binding)
        with obs.collecting() as registry:
            lint_binding(binding)  # same object: id-memo, no counters
            snapshot = registry.snapshot()
        assert (
            obs.counter_value(snapshot, "repro_lint_cache_hits_total") == 0
        )
        assert (
            obs.counter_value(snapshot, "repro_lint_cache_misses_total") == 0
        )

    def test_clear_lint_cache_forces_a_fresh_run(self):
        binding = fresh_binding()
        lint_engine._BINDING_MEMO.clear()
        clear_lint_cache()
        lint_binding(binding)
        assert len(lint_engine._CONTENT_CACHE) == 1
        clear_lint_cache()
        assert len(lint_engine._CONTENT_CACHE) == 0
        lint_engine._BINDING_MEMO.clear()
        with obs.collecting() as registry:
            lint_binding(binding)
            snapshot = registry.snapshot()
        assert (
            obs.counter_value(snapshot, "repro_lint_cache_misses_total") == 1
        )
