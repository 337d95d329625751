"""Content-addressed store: addressing, indexing, corruption defence."""

import json

from repro.provenance import (
    STORE_SCHEMA,
    TraceStore,
    canonical_json,
    code_epoch,
    verdict_key,
)


def make_key(name="demo", **overrides):
    params = dict(
        operator_digest="a" * 64,
        instruction_digest="b" * 64,
        engine="vectorized",
        trials=120,
        seed=1982,
        verify=True,
        epoch="e" * 64,
    )
    params.update(overrides)
    return verdict_key(name, **params)


class TestObjects:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = store.put_object({"hello": "world"})
        assert store.get_object(digest) == {"hello": "world"}

    def test_content_addressing_dedupes(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.put_object({"a": 1, "b": 2})
        second = store.put_object({"b": 2, "a": 1})
        assert first == second
        objects = list((tmp_path / "objects").rglob("*.json"))
        assert len(objects) == 1

    def test_object_name_is_digest_of_canonical_json(self, tmp_path):
        import hashlib

        payload = {"x": [1, 2, 3]}
        store = TraceStore(tmp_path)
        digest = store.put_object(payload)
        expected = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        assert digest == expected

    def test_missing_object_is_none(self, tmp_path):
        assert TraceStore(tmp_path).get_object("0" * 64) is None

    def test_corrupted_object_is_none(self, tmp_path):
        store = TraceStore(tmp_path)
        digest = store.put_object({"fine": True})
        path = tmp_path / "objects" / digest[:2] / f"{digest[2:]}.json"
        path.write_text("{not json", encoding="utf-8")
        assert store.get_object(digest) is None


class TestVerdictIndex:
    def test_record_lookup_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key()
        payload = {"schema": STORE_SCHEMA, "key": key, "result": {"ok": True}}
        store.record_verdict(key, payload)
        assert store.lookup_verdict(key) == payload

    def test_different_key_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key()
        store.record_verdict(
            key, {"schema": STORE_SCHEMA, "key": key, "result": {}}
        )
        assert store.lookup_verdict(make_key(trials=240)) is None
        assert store.lookup_verdict(make_key(epoch="f" * 64)) is None
        assert store.lookup_verdict(make_key(operator_digest="c" * 64)) is None

    def test_stale_pointer_is_rejected(self, tmp_path):
        """A pointer whose artifact answers a different key is a miss."""
        store = TraceStore(tmp_path)
        key = make_key()
        other = make_key(seed=7)
        store.record_verdict(
            key, {"schema": STORE_SCHEMA, "key": key, "result": {}}
        )
        wrong = store.put_object(
            {"schema": STORE_SCHEMA, "key": other, "result": {}}
        )
        pointer = store._key_path(key)
        pointer.write_text(json.dumps({"object": wrong}), encoding="utf-8")
        assert store.lookup_verdict(key) is None

    def test_by_name_index(self, tmp_path):
        store = TraceStore(tmp_path)
        key = make_key(name="scasb_rigel")
        payload = {"schema": STORE_SCHEMA, "key": key, "result": {"n": 1}}
        store.record_verdict(key, payload)
        assert store.names() == ["scasb_rigel"]
        assert store.latest_for("scasb_rigel") == payload
        assert store.latest_for("nonsense") is None

    def test_latest_pointer_moves(self, tmp_path):
        store = TraceStore(tmp_path)
        first = {"schema": STORE_SCHEMA, "key": make_key(), "result": {"v": 1}}
        second = {
            "schema": STORE_SCHEMA,
            "key": make_key(seed=7),
            "result": {"v": 2},
        }
        store.record_verdict(make_key(), first)
        store.record_verdict(make_key(seed=7), second)
        assert store.latest_for("demo") == second


class TestCodeEpoch:
    def test_epoch_is_hex_and_cached(self):
        epoch = code_epoch()
        assert len(epoch) == 64
        int(epoch, 16)
        assert code_epoch() is epoch

    def test_key_defaults_to_current_epoch(self):
        key = verdict_key("x", "a" * 64, "b" * 64, "interp", 10, 1, True)
        assert key["code_epoch"] == code_epoch()
        assert key["schema"] == STORE_SCHEMA
