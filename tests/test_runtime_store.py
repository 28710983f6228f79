"""Tests for the content-addressed artifact store."""

import hashlib
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.runtime.store import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    MISS,
    ArtifactStore,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_then_get(self, store):
        payload = {"rows": [1, 2, 3], "name": "compress"}
        store.put(DIGEST, payload)
        assert store.get(DIGEST) == payload

    def test_missing_entry_is_miss(self, store):
        assert store.get(DIGEST) is MISS

    def test_none_payload_distinguished_from_miss(self, store):
        store.put(DIGEST, None)
        assert store.get(DIGEST) is None

    def test_entries_are_sharded_by_digest_prefix(self, store):
        store.put(DIGEST, 1)
        assert store.path_for(DIGEST).parent.name == DIGEST[:2]

    def test_no_temp_files_left_behind(self, store):
        store.put(DIGEST, list(range(1000)))
        leftovers = [
            p for p in store.root.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestCorruptionTolerance:
    """A damaged cache must only ever cost a recompute, never a crash."""

    def test_truncated_entry_is_miss_and_dropped(self, store):
        store.put(DIGEST, {"big": "x" * 4096})
        path = store.path_for(DIGEST)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(DIGEST) is MISS
        assert not path.exists()

    def test_garbage_bytes_are_a_miss(self, store):
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        assert store.get(DIGEST) is MISS

    def test_wrong_magic_is_a_miss(self, store):
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": "someone-else",
                    "version": ENVELOPE_VERSION,
                    "digest": DIGEST,
                    "payload": 1,
                }
            )
        )
        assert store.get(DIGEST) is MISS

    def test_stale_envelope_version_is_a_miss(self, store):
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": ENVELOPE_MAGIC,
                    "version": ENVELOPE_VERSION + 1,
                    "digest": DIGEST,
                    "payload": 1,
                }
            )
        )
        assert store.get(DIGEST) is MISS

    def test_entry_filed_under_wrong_digest_is_a_miss(self, store):
        store.put(DIGEST, "payload")
        misfiled = store.path_for(OTHER)
        misfiled.parent.mkdir(parents=True, exist_ok=True)
        misfiled.write_bytes(store.path_for(DIGEST).read_bytes())
        assert store.get(OTHER) is MISS

    def test_recompute_after_corruption(self, store):
        """The caller's get-miss → compute → put cycle self-heals."""
        store.put(DIGEST, "good")
        store.path_for(DIGEST).write_bytes(b"\x80")  # truncated pickle
        value = store.get(DIGEST)
        assert value is MISS
        store.put(DIGEST, "recomputed")
        assert store.get(DIGEST) == "recomputed"

    def test_bit_flip_in_payload_is_a_miss_not_a_wrong_artifact(
        self, store
    ):
        """Regression: in-place payload damage must fail the checksum.

        Under envelope v1 only the digest key was validated, so a
        flipped byte deep inside the pickled payload could silently
        unpickle to a *different* value — the one corruption worse than
        a crash.  The v2 payload checksum turns it into a clean miss.
        """
        store.put(DIGEST, "A" * 2048)
        path = store.path_for(DIGEST)
        blob = bytearray(path.read_bytes())
        position = bytes(blob).find(b"AAAAAAAA") + 4
        assert position >= 4, "payload bytes not found in envelope"
        blob[position] ^= 0x03  # 'A' -> 'B'
        path.write_bytes(bytes(blob))
        assert store.get(DIGEST) is MISS
        assert not path.exists()  # the damaged entry was dropped

    def test_v1_envelope_without_checksum_is_a_miss(self, store):
        """Entries from the pre-checksum format recompute cleanly."""
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": ENVELOPE_MAGIC,
                    "version": 1,
                    "digest": DIGEST,
                    "payload": "raw object, no checksum",
                }
            )
        )
        assert store.get(DIGEST) is MISS

    def test_checksum_over_wrong_payload_is_a_miss(self, store):
        """A forged envelope whose sha256 doesn't match the payload."""
        import hashlib

        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        payload_blob = pickle.dumps("evil twin")
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": ENVELOPE_MAGIC,
                    "version": ENVELOPE_VERSION,
                    "digest": DIGEST,
                    "sha256": hashlib.sha256(b"other bytes").hexdigest(),
                    "payload": payload_blob,
                }
            )
        )
        assert store.get(DIGEST) is MISS


class TestConcurrencySafety:
    """Race windows must degrade to misses, never lose good entries."""

    def test_corrupt_read_spares_a_concurrently_replaced_entry(
        self, store
    ):
        """Regression for the read/discard TOCTOU window.

        A reader that opened a corrupt entry used to unlink the *path*
        after the failed parse — destroying a good entry a concurrent
        writer had just renamed into place.  The discard is now guarded
        by the inode captured at open time.
        """
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"corrupt garbage")
        corrupt_inode = os.stat(path).st_ino
        # A concurrent writer replaces the entry before the reader gets
        # around to discarding what it read.
        store.put(DIGEST, "freshly recomputed")
        assert os.stat(path).st_ino != corrupt_inode
        store._discard_if_unchanged(path, corrupt_inode)
        assert store.get(DIGEST) == "freshly recomputed"

    def test_discard_if_unchanged_drops_the_file_it_read(self, store):
        path = store.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"corrupt garbage")
        store._discard_if_unchanged(path, os.stat(path).st_ino)
        assert not path.exists()

    def test_discard_without_inode_leaves_the_entry_alone(self, store):
        store.put(DIGEST, "value")
        store._discard_if_unchanged(store.path_for(DIGEST), None)
        assert store.get(DIGEST) == "value"

    def test_get_tolerates_entry_vanishing_after_validation(
        self, store, monkeypatch
    ):
        """An evictor unlinking between read and the LRU touch."""
        store.put(DIGEST, "value")
        real_utime = os.utime

        def vanish_then_touch(path, *args, **kwargs):
            try:
                os.unlink(path)
            except OSError:
                pass
            return real_utime(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", vanish_then_touch)
        # The payload was already read; the failed touch must not raise.
        assert store.get(DIGEST) == "value"
        assert store.get(DIGEST) is MISS  # and it really is gone

    def test_multiprocess_writers_evictor_readers(self, tmp_path):
        """Stress the real race: every read is a miss or the true value."""
        import multiprocessing

        from repro.check.faults import (
            _payload_for,
            _race_evictor,
            _race_reader,
            _race_writer,
        )

        root = str(tmp_path / "race")
        digests = [f"{i:02x}" + "f" * 62 for i in range(4)]
        entry = len(pickle.dumps(_payload_for(digests[0]))) + 256
        seconds = 0.4
        processes = [
            multiprocessing.Process(
                target=_race_writer,
                args=(root, 2 * entry, digests, seconds),
            ),
            multiprocessing.Process(
                target=_race_evictor, args=(root, digests, seconds)
            ),
            multiprocessing.Process(
                target=_race_reader, args=(root, digests, seconds)
            ),
            multiprocessing.Process(
                target=_race_reader, args=(root, digests, seconds)
            ),
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=30.0)
        codes = [p.exitcode for p in processes]
        assert codes == [0, 0, 0, 0], (
            "3=wrong artifact observed, 4=reader raised: %r" % codes
        )


class TestLRUCap:
    def test_eviction_drops_least_recently_used(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)  # everything over cap
        digests = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for i, digest in enumerate(digests):
            store.put(digest, "x" * 128)
            # make mtimes strictly ordered regardless of fs resolution
            os.utime(store.path_for(digest), (1000 + i, 1000 + i))
        # each put evicts everything except the entry just written
        assert store.get(digests[0]) is MISS
        assert store.get(digests[1]) is MISS
        assert store.get(digests[2]) == "x" * 128

    def test_hit_refreshes_recency(self, tmp_path):
        store = ArtifactStore(tmp_path)  # no cap while seeding
        a, b = "aa" + "0" * 62, "bb" + "0" * 62
        store.put(a, "x" * 64)
        store.put(b, "x" * 64)
        entry = store.size_of(a)
        store.max_bytes = int(2.5 * entry)  # room for two entries
        os.utime(store.path_for(a), (1000, 1000))
        os.utime(store.path_for(b), (2000, 2000))
        assert store.get(a) == "x" * 64  # touch refreshes a's mtime
        os.utime(store.path_for(a), (3000, 3000))
        store.put("cc" + "0" * 62, "x" * 64)  # forces eviction of b
        assert store.get(a) == "x" * 64
        assert store.get(b) is MISS

    def test_no_cap_means_no_eviction(self, store):
        for i in range(5):
            store.put(f"{i:02x}" + "0" * 62, "x" * 1024)
        assert store.stats().entries == 5


class TestStatsAndClear:
    def test_stats_counts_entries_and_bytes(self, store):
        store.put(DIGEST, "abc")
        store.put(OTHER, "defg")
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0

    def test_clear_empties_the_store(self, store):
        store.put(DIGEST, "abc")
        store.put(OTHER, "defg")
        assert store.clear() == 2
        assert store.stats().entries == 0
        assert store.get(DIGEST) is MISS


def _digest(i: int) -> str:
    return hashlib.sha256(b"%d" % i).hexdigest()


def _disk_bytes(store) -> int:
    return sum(p.stat().st_size for p in store._iter_entries())


def _count_walks(monkeypatch) -> list:
    """Record every ``_iter_entries`` call made on any store."""
    calls = []
    real = ArtifactStore._iter_entries

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(ArtifactStore, "_iter_entries", counting)
    return calls


class TestLedger:
    """The byte ledger in ``<root>/.lock`` replaces the per-put walk."""

    def test_puts_under_the_cap_walk_only_to_seed(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path, max_bytes=1 << 30)
        walks = _count_walks(monkeypatch)
        written = sum(store.put(_digest(i), i) for i in range(2000))
        assert len(walks) == 1  # the seeding walk of the first put
        assert store.ledger_bytes() == written == _disk_bytes(store)

    @pytest.mark.parametrize(
        "damage",
        ["missing", "empty", "garbage", "truncated"],
    )
    def test_damaged_ledger_reseeds_with_one_walk(
        self, tmp_path, monkeypatch, damage
    ):
        store = ArtifactStore(tmp_path, max_bytes=1 << 30)
        for i in range(5):
            store.put(_digest(i), "x" * 100)
        lock = tmp_path / ".lock"
        good = lock.read_bytes()
        if damage == "missing":
            lock.unlink()
        elif damage == "empty":
            lock.write_bytes(b"")
        elif damage == "garbage":
            lock.write_bytes(b"\x00not a byte count\n")
        else:
            lock.write_bytes(good[:-2])  # the count cut short
        walks = _count_walks(monkeypatch)
        store.put(_digest(5), "x" * 100)
        store.put(_digest(6), "x" * 100)
        assert len(walks) == 1
        assert store.ledger_bytes() == _disk_bytes(store)

    def test_clear_resets_the_ledger(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1 << 30)
        for i in range(3):
            store.put(_digest(i), "x" * 100)
        assert store.ledger_bytes() > 0
        store.clear()
        assert store.ledger_bytes() == 0

    def test_uncapped_writers_keep_a_capped_store_honest(self, tmp_path):
        capped = ArtifactStore(tmp_path, max_bytes=1)
        uncapped = ArtifactStore(tmp_path)
        capped.put(_digest(0), "x" * 100)
        for i in range(1, 6):
            uncapped.put(_digest(i), "x" * 100)
            assert uncapped.ledger_bytes() >= _disk_bytes(uncapped)
        assert uncapped.stats().entries == 6  # no cap, no eviction
        capped.put(_digest(6), "x" * 100)
        assert [p.stem for p in capped._iter_entries()] == [_digest(6)]
        assert capped.ledger_bytes() == _disk_bytes(capped)


class TestStagingFiles:
    """``.<digest8>-*.tmp`` files left by writers killed before publish."""

    def test_clear_removes_orphaned_staging_files(self, store):
        store.put(DIGEST, "value")
        fd, orphan = tempfile.mkstemp(
            prefix=f".{DIGEST[:8]}-",
            suffix=".tmp",
            dir=store.path_for(DIGEST).parent,
        )
        os.close(fd)
        assert store.stats().entries == 1  # invisible to the entry walk
        assert store.clear() == 1
        assert not os.path.exists(orphan)
        assert list(store.root.rglob("*.tmp")) == []

    def test_put_racing_clear_publishes_nothing(self, store, monkeypatch):
        real_mkstemp = tempfile.mkstemp

        def mkstemp_then_clear(*args, **kwargs):
            staged = real_mkstemp(*args, **kwargs)
            store.clear()  # another process clears mid-write
            return staged

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp_then_clear)
        assert store.put(DIGEST, "value") == 0
        assert store.get(DIGEST) is MISS
        assert list(store.root.rglob("*.tmp")) == []

    def test_get_or_compute_survives_a_racing_clear(
        self, tmp_path, monkeypatch
    ):
        saved = runtime.runtime_config()
        runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
        try:
            real_mkstemp = tempfile.mkstemp

            def mkstemp_then_clear(*args, **kwargs):
                staged = real_mkstemp(*args, **kwargs)
                runtime.default_store().clear()
                return staged

            monkeypatch.setattr(tempfile, "mkstemp", mkstemp_then_clear)
            value = runtime.get_or_compute(
                "compile",
                lambda: "computed",
                benchmark="staging-race",
                scale=1,
            )
            assert value == "computed"
            assert runtime.default_store().stats().entries == 0
        finally:
            runtime.set_runtime_config(saved)


# ------------------------------------------- ledger vs. walk-every-put
_KEYS = 4
_CAPS = {"one-byte": 1, "few-entries": 2500, "unbounded": None}


def _model_evict(root, max_bytes, keep) -> None:
    """The pre-ledger policy: after every put, walk the whole store and
    drop least-recently-modified entries (never ``keep``) to the cap."""
    if not max_bytes:
        return
    entries = []
    for dirpath, _, names in os.walk(os.path.join(root, "objects")):
        for name in names:
            if name.endswith(".pkl"):
                path = os.path.join(dirpath, name)
                stat = os.stat(path)
                entries.append((stat.st_mtime, stat.st_size, path))
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= max_bytes:
            break
        if path != keep:
            os.unlink(path)
            total -= size


def _survivors(store) -> set:
    return {p.stem for p in store._iter_entries()}


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, _KEYS - 1),
            st.sampled_from([16, 400, 1200]),
        ),
        st.tuples(st.just("get"), st.integers(0, _KEYS - 1)),
        st.tuples(
            st.just("utime"),
            st.integers(0, _KEYS - 1),
            st.integers(0, 2000),
        ),
        st.tuples(st.just("unlink"), st.integers(0, _KEYS - 1)),
        st.tuples(
            st.just("overwrite"),
            st.integers(0, _KEYS - 1),
            st.sampled_from([16, 400, 1200]),
        ),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(cap=st.sampled_from(sorted(_CAPS)), ops=_OPS)
def test_ledger_evicts_exactly_like_walking_every_put(cap, ops):
    """Against a store that walks and evicts after every put, the ledger
    store keeps the same entries after every operation (LRU order, the
    protected just-written entry, out-of-band deletions and all) and its
    ledger never falls below the bytes on disk.

    Each operation stamps the entries it touches with a distinct logical
    mtime in both stores, so LRU order never depends on clock ties.
    """
    max_bytes = _CAPS[cap]
    with tempfile.TemporaryDirectory() as tmp:
        real = ArtifactStore(os.path.join(tmp, "ledger"), max_bytes)
        model = ArtifactStore(os.path.join(tmp, "model"))  # evicts below
        digests = [_digest(i) for i in range(_KEYS)]
        for clock, (op, key, *arg) in enumerate(ops, start=1):
            digest = digests[key]
            paths = [real.path_for(digest), model.path_for(digest)]
            stamp = None
            if op == "overwrite" and not paths[0].exists():
                op = "skip"
            if op in ("put", "overwrite"):
                payload = (clock, "x" * arg[0])
                real.put(digest, payload)
                model.put(digest, payload)
                _model_evict(model.root, max_bytes, str(paths[1]))
                stamp = (1000 + clock) * 10**9
            elif op == "get":
                got, expected = real.get(digest), model.get(digest)
                assert (got is MISS) == (expected is MISS)
                if got is not MISS:
                    assert got == expected
                    stamp = (1000 + clock) * 10**9
            elif op == "utime":
                if paths[0].exists():
                    stamp = arg[0] * 10**9 + clock * 1000
            elif op == "unlink":
                for path in paths:
                    if path.exists():
                        path.unlink()
            if stamp is not None:
                for path in paths:
                    os.utime(path, ns=(stamp, stamp))
            assert _survivors(real) == _survivors(model), (clock, op)
            ledger = real.ledger_bytes()
            assert ledger is None or ledger >= _disk_bytes(real)
