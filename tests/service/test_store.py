"""ResultStore: atomic writes, verified reads, quarantine, LRU gc.

Includes the concurrency contract (two processes writing the same key,
a reader racing a writer, corrupted-entry quarantine): readers either
see a complete verified payload or ``None`` (recompute) — never an
exception, never a partial entry.
"""

import asyncio
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro.service.store as store_module
from repro.errors import ServiceError
from repro.service.hashing import canonical_json, content_hash
from repro.service.queue import JobManager
from repro.service.store import ResultStore, default_store_path

KEY = "0" * 64
OTHER = "1" * 64


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        payload = {"row": {"a": 1, "b": 0.5}}
        store.put(KEY, payload)
        assert store.get(KEY) == payload

    def test_put_normalises_payload(self, store):
        # 2.0 collapses to 2 in canonical JSON: what put() returns is
        # exactly what get() serves, so cached and fresh responses are
        # byte-identical.
        returned = store.put(KEY, {"row": {"a": 2.0}})
        assert returned == {"row": {"a": 2}}
        assert store.get(KEY) == returned

    def test_non_finite_payload_round_trips(self, store):
        # Optimisation results carry -inf objectives for infeasible
        # prefixes; the payload domain must round-trip them verified.
        payload = {"row": {"best": float("-inf"), "worst": float("inf")}}
        returned = store.put(KEY, payload)
        assert returned == payload
        assert store.get(KEY) == payload
        assert store.stats().quarantined == 0

    def test_missing_key_is_none(self, store):
        assert store.get(KEY) is None

    def test_contains_len_keys(self, store):
        assert KEY not in store
        store.put(KEY, {"x": 1})
        store.put(OTHER, {"x": 2})
        assert KEY in store
        assert len(store) == 2
        assert list(store.keys()) == sorted([KEY, OTHER])

    def test_delete(self, store):
        store.put(KEY, {"x": 1})
        assert store.delete(KEY) is True
        assert store.delete(KEY) is False
        assert store.get(KEY) is None

    def test_overwrite_same_key_wins_last(self, store):
        store.put(KEY, {"x": 1})
        store.put(KEY, {"x": 2})
        assert store.get(KEY) == {"x": 2}

    def test_bad_key_rejected(self, store):
        with pytest.raises(ServiceError):
            store.put("not-a-hash", {})
        with pytest.raises(ServiceError):
            store.get("ABCD")

    def test_envelope_is_versioned_and_checksummed(self, store):
        # Layout v2: one sorted-JSON header line, then the canonical
        # payload text byte for byte, checksummed as bytes.
        store.put(KEY, {"x": 1}, kind="unit-test")
        header_line, payload = store.path_for(KEY).read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert header["schema_version"] == 2
        assert header["spec_hash"] == KEY
        assert header["kind"] == "unit-test"
        assert header["checksum"] == hashlib.sha256(payload).hexdigest()
        assert header_line == json.dumps(header, sort_keys=True).encode()
        assert payload == canonical_json({"x": 1}).encode()

    def test_get_text_serves_the_stored_bytes(self, store):
        payload = {"row": {"b": [1, 2.5], "a": float("-inf")}}
        store.put(KEY, payload)
        text = canonical_json(payload, allow_non_finite=True)
        assert store.get_text(KEY) == text
        assert store.get_text(OTHER) is None

    def test_hit_never_recanonicalises_or_parses_the_payload(
        self, store, monkeypatch
    ):
        store.put(KEY, {"row": {"a": 1, "blob": "z" * 1000}})
        stored = store.path_for(KEY).read_bytes().split(b"\n", 1)[1]
        parsed = []

        def refuse(*args, **kwargs):
            raise AssertionError("cache hit re-canonicalised its payload")

        def recording_loads(text, *args, **kwargs):
            parsed.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(store_module, "canonical_json", refuse)
        monkeypatch.setattr(
            store_module, "json", SimpleNamespace(loads=recording_loads)
        )
        assert store.get_text(KEY) == stored.decode()
        # the header line is the only JSON the read parses
        assert parsed and all(b"blob" not in text for text in parsed)

    def test_open_coerces(self, store, tmp_path):
        assert ResultStore.open(store) is store
        assert ResultStore.open(str(tmp_path / "store")).root == store.root

    def test_default_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
        assert default_store_path() == tmp_path / "elsewhere"
        assert ResultStore().root == tmp_path / "elsewhere"


class TestQuarantine:
    def test_truncated_entry_quarantined(self, store):
        store.put(KEY, {"x": 1})
        path = store.path_for(KEY)
        path.write_text(path.read_text()[:20])
        assert store.get(KEY) is None
        assert not path.exists()
        assert store.stats().quarantined == 1
        # the slot is reusable afterwards
        store.put(KEY, {"x": 2})
        assert store.get(KEY) == {"x": 2}

    def test_tampered_payload_quarantined(self, store):
        store.put(KEY, {"x": 1})
        path = store.path_for(KEY)
        header_line = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header_line + b"\n" + canonical_json({"x": 999}).encode())
        assert store.get(KEY) is None
        assert store.stats().quarantined == 1

    def test_flipped_payload_byte_quarantined(self, store):
        store.put(KEY, {"row": {"value": 12345}})
        path = store.path_for(KEY)
        raw = path.read_bytes()
        at = raw.rindex(b"3")
        path.write_bytes(raw[:at] + b"4" + raw[at + 1:])
        assert store.get_text(KEY) is None
        assert not path.exists()
        assert store.stats().quarantined == 1

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda header: header.update(checksum="0" * 64),
            lambda header: header.update(spec_hash=OTHER),
            lambda header: header.pop("checksum"),
            lambda header: header.pop("schema_version"),
        ],
        ids=["checksum", "spec-hash", "no-checksum", "no-version"],
    )
    def test_tampered_header_quarantined(self, store, tamper):
        store.put(KEY, {"x": 1})
        path = store.path_for(KEY)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        tamper(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert store.get_text(KEY) is None
        assert store.stats().quarantined == 1

    def test_wrong_slot_quarantined(self, store):
        store.put(KEY, {"x": 1})
        target = store.path_for(OTHER)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(store.path_for(KEY), target)
        assert store.get(OTHER) is None

    def test_wrong_schema_version_quarantined(self, store):
        store.put(KEY, {"x": 1})
        path = store.path_for(KEY)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["schema_version"] = 999
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        assert store.get(KEY) is None
        assert store.stats().quarantined == 1

    def test_v1_envelope_quarantined_then_recomputed(self, tmp_path):
        # A layout-v1 entry: one JSON object holding the parsed payload.
        store = ResultStore(tmp_path / "store")
        document = {"name": "v1", "seed": 3}
        calls = []

        def execute(doc):
            calls.append(doc["seed"])
            return {"row": {"seed": doc["seed"]}}

        async def main():
            mgr = JobManager(store=store, worker="inline", execute=execute)
            key = mgr.submit(document).spec_hash
            await mgr.get(key).result()
            payload = {"row": {"seed": 3}}
            text = canonical_json(payload)
            store.path_for(key).write_text(json.dumps({
                "checksum": hashlib.sha256(text.encode()).hexdigest(),
                "kind": "scenario-result",
                "payload": payload,
                "schema_version": 1,
                "spec_hash": key,
            }, sort_keys=True))
            job = mgr.submit(document)
            assert job.state != "cached"
            assert await job.result() == payload
            assert job.state == "done"
            assert store.stats().quarantined == 1
            assert store.get_text(key) == text
            await mgr.close()

        asyncio.run(main())
        assert calls == [3, 3]


class TestGc:
    def _fill(self, store, count):
        keys = [f"{i:064x}" for i in range(count)]
        for index, key in enumerate(keys):
            store.put(key, {"i": index})
            # Strictly increasing mtimes make LRU order deterministic.
            os.utime(store.path_for(key), (index, index))
        return keys

    def test_gc_noop_within_bounds(self, store):
        self._fill(store, 3)
        assert store.gc(max_entries=10) == []
        assert len(store) == 3

    def test_gc_evicts_lru_by_entries(self, store):
        keys = self._fill(store, 5)
        evicted = store.gc(max_entries=2)
        assert evicted == keys[:3]
        assert list(store.keys()) == sorted(keys[3:])

    def test_gc_evicts_by_bytes(self, store):
        keys = self._fill(store, 4)
        size = store.path_for(keys[0]).stat().st_size
        evicted = store.gc(max_bytes=2 * size)
        assert keys[0] in evicted
        assert store.stats().total_bytes <= 2 * size

    def test_read_freshens_lru_rank(self, store):
        keys = self._fill(store, 3)
        future = 10**9
        store.get(keys[0])
        os.utime(store.path_for(keys[0]), (future, future))
        evicted = store.gc(max_entries=1)
        assert keys[0] not in evicted
        assert list(store.keys()) == [keys[0]]

    def test_gc_rejects_negative_bounds(self, store):
        with pytest.raises(ServiceError):
            store.gc(max_entries=-1)
        with pytest.raises(ServiceError):
            store.gc(max_bytes=-1)

    def test_stats_counts(self, store):
        self._fill(store, 2)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.to_dict()["entries"] == 2


WRITER_SCRIPT = """
import sys
from repro.service.store import ResultStore
root, key, value, repeats = sys.argv[1:5]
store = ResultStore(root)
payload = {"worker": value, "blob": value * 2000}
for _ in range(int(repeats)):
    store.put(key, payload)
print("done")
"""


def _spawn_writer(root, key, value, repeats=1):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT, str(root), key, value,
         str(repeats)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestConcurrency:
    def test_two_processes_writing_same_key(self, tmp_path):
        root = tmp_path / "store"
        writers = [
            _spawn_writer(root, KEY, value, repeats=20)
            for value in ("aa", "bb")
        ]
        for writer in writers:
            out, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err
            assert "done" in out
        # Whichever writer won, the surviving entry verifies cleanly.
        payload = ResultStore(root).get(KEY)
        assert payload is not None
        assert payload["worker"] in ("aa", "bb")
        assert payload["blob"] == payload["worker"] * 2000
        assert ResultStore(root).stats().quarantined == 0

    def test_reader_during_write_never_sees_partial(self, tmp_path):
        root = tmp_path / "store"
        writer = _spawn_writer(root, KEY, "cc", repeats=200)
        reader = ResultStore(root)
        observed = 0
        try:
            while writer.poll() is None:
                payload = reader.get(KEY)
                if payload is not None:
                    # complete and checksum-verified, or nothing
                    assert payload["blob"] == "cc" * 2000
                    observed += 1
        finally:
            out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert reader.get(KEY) is not None
        # atomic replace means no read ever quarantined a live write
        assert reader.stats().quarantined == 0
        assert observed > 0

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        # the end-to-end shape of the quarantine contract: corrupt entry
        # -> miss -> recompute via put -> hit again
        store = ResultStore(tmp_path / "store")
        key = content_hash({"scenario": "x"})
        store.put(key, {"row": {"v": 1}})
        store.path_for(key).write_text("{nope")
        assert store.get(key) is None  # recompute signal, no crash
        store.put(key, {"row": {"v": 1}})
        assert store.get(key) == {"row": {"v": 1}}
