"""The per-object description memo behind digests and kernel keys."""

import dataclasses
import gc
import hashlib
import importlib
import sys
import threading
import weakref

from repro.analysis.runner import resolve_names
from repro.isdl import description_digest, digest, format_description, parser
from repro.semantics import clear_vector_cache, compile_vectorized, vector_cache_stats

TEXT = """
demo.op := begin
    ** S **
        x<7:0>
    ** P **
        demo.execute() := begin
            input (x);
            x <- x + 1;
            output (x);
        end
end
"""


def catalog_descriptions():
    for entry in resolve_names(None):
        module = importlib.import_module(f"repro.analyses.{entry.name}")
        yield module.OPERATOR()
        yield module.INSTRUCTION()


def test_digest_is_sha256_of_the_printed_form():
    for description in catalog_descriptions():
        reference = hashlib.sha256(
            format_description(description).encode("utf-8")
        ).hexdigest()
        assert description_digest(description) == reference, description.name


def test_second_call_reads_the_memo(monkeypatch):
    calls = []

    def spy(description):
        calls.append(description)
        return format_description(description)

    monkeypatch.setattr(digest, "format_description", spy)
    fresh = parser.parse_description(TEXT)
    first = description_digest(fresh)
    assert description_digest(fresh) == first
    assert digest.description_text(fresh) == format_description(fresh)
    assert calls == [fresh]


def test_collected_entry_is_evicted():
    fresh = parser.parse_description(TEXT)
    key = id(fresh)
    description_digest(fresh)
    assert key in digest._MEMO
    del fresh
    gc.collect()
    assert key not in digest._MEMO


def test_reused_id_gets_its_own_digest(monkeypatch):
    # A memo slot left by another, since collected, object with the
    # same id must not answer for the new one.
    original = parser.parse_description(TEXT)
    other = dataclasses.replace(original, name="other")
    stale = (weakref.ref(original), "stale text", "0" * 64)
    monkeypatch.setitem(digest._MEMO, id(other), stale)
    assert description_digest(other) == hashlib.sha256(
        format_description(other).encode("utf-8")
    ).hexdigest()
    assert description_digest(other) != description_digest(original)


def test_equal_distinct_descriptions_share_one_kernel():
    first = parser.parse_description(TEXT)
    second = parser.parse_description(TEXT)
    assert first is not second and first == second
    clear_vector_cache()
    try:
        kernel = compile_vectorized(first)
        assert compile_vectorized(second) is kernel
        assert vector_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
    finally:
        clear_vector_cache()


def test_threads_sharing_the_memo_agree():
    # The service digests descriptions from many threads at once: every
    # thread must read the one digest its object prints to.
    texts = [TEXT.replace("x + 1", f"x + {n}") for n in range(1, 9)]
    reference = [
        hashlib.sha256(
            format_description(parser.parse_description(t)).encode("utf-8")
        ).hexdigest()
        for t in texts
    ]
    shared = [parser.parse_description(t) for t in texts]
    wrong = []

    def worker():
        for _ in range(50):
            for description, expected in zip(shared, reference):
                if description_digest(description) != expected:
                    wrong.append(description.name)
            for text, expected in zip(texts, reference):
                if description_digest(parser.parse_description(text)) != expected:
                    wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
