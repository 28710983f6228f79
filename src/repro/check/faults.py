"""Fault injection against the artifact store (`scope="store"`).

The store's contract is that *any* corruption — truncation, flipped
bits, files filed under the wrong digest, writers crashing mid-write,
evictors racing readers — degrades to a recomputing cache miss, never an
exception and never a wrong artifact.  Each invariant here manufactures
one class of damage in a throwaway store and asserts exactly that.

Every fault pattern is driven by the run's seed, so a failing run
reproduces byte-for-byte with ``repro check --seed N``.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import tempfile
import time

from repro.check.registry import CheckContext, Recorder, invariant
from repro.runtime.store import MISS, ArtifactStore

#: Digest used for single-entry fault experiments (any hex name works:
#: the store shards on the first byte).
_DIGEST = "ab" + "0" * 62
_OTHER = "cd" + "1" * 62


def _payload_for(digest: str) -> tuple:
    """A recognizable payload so readers can detect substitutions."""
    return ("check-artifact", digest, "x" * 4096)


def _fresh_store(root: str, max_bytes=None) -> ArtifactStore:
    return ArtifactStore(pathlib.Path(root), max_bytes=max_bytes)


def _expect_miss(
    rec: Recorder, store: ArtifactStore, subject: str, what: str
) -> None:
    try:
        result = store.get(_DIGEST)
    except Exception as exc:  # the contract: corruption never raises
        rec.expect(
            False, subject, f"{what}: get() raised {type(exc).__name__}: {exc}"
        )
        return
    rec.expect(
        result is MISS,
        subject,
        f"{what}: expected a clean miss, got {type(result).__name__}",
    )


@invariant(
    "store-truncation",
    scope="store",
    description="truncated envelopes read as clean misses",
)
def _store_truncation(ctx: CheckContext, rec: Recorder) -> None:
    rng = ctx.rng("store-truncation")
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        store = _fresh_store(root)
        full = store.put(_DIGEST, _payload_for(_DIGEST))
        path = store.path_for(_DIGEST)
        blob = path.read_bytes()
        cuts = [0, 1, len(blob) // 2]
        cuts += [rng.randrange(1, len(blob)) for _ in range(3)]
        for cut in cuts:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob[:cut])
            _expect_miss(
                rec, store, f"cut@{cut}/{full}", "truncated envelope"
            )
            store.put(_DIGEST, _payload_for(_DIGEST))  # restore


@invariant(
    "store-bitflip",
    scope="store",
    description="a flipped payload bit is a miss, never a wrong artifact",
)
def _store_bitflip(ctx: CheckContext, rec: Recorder) -> None:
    # The decisive case: damage *inside* the pickled payload bytes used
    # to unpickle silently into a different object.  With the envelope
    # checksum every flip anywhere in the file must read as a miss.
    rng = ctx.rng("store-bitflip")
    flips = 8 if ctx.quick else 32
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        store = _fresh_store(root)
        store.put(_DIGEST, _payload_for(_DIGEST))
        path = store.path_for(_DIGEST)
        blob = path.read_bytes()
        positions = [rng.randrange(len(blob)) for _ in range(flips)]
        # Always include a flip deep inside the "x" filler, the exact
        # region a digest-only check never looked at.
        positions.append(blob.find(b"xxxxxxxx") + 4)
        for position in positions:
            flipped = bytearray(blob)
            flipped[position] ^= 1 << rng.randrange(8)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(flipped))
            _expect_miss(
                rec, store, f"bit@{position}", "bit-flipped envelope"
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)  # restore the good entry


@invariant(
    "store-bitflip-exhaustive",
    scope="store",
    description="flipping any single byte of an envelope is a miss "
                "(full mode only)",
    quick=False,
)
def _store_bitflip_exhaustive(ctx: CheckContext, rec: Recorder) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        store = _fresh_store(root)
        store.put(_DIGEST, _payload_for(_DIGEST))
        path = store.path_for(_DIGEST)
        blob = bytearray(path.read_bytes())
        survived = []
        for position in range(len(blob)):
            original = blob[position]
            blob[position] ^= 0xFF
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(blob))
            blob[position] = original
            try:
                if store.get(_DIGEST) is not MISS:
                    survived.append(position)
            except Exception:
                survived.append(position)
        rec.expect(
            not survived,
            f"{len(blob)}B-envelope",
            f"byte flips at offsets {survived[:10]} were not misses",
        )


@invariant(
    "store-misfiled",
    scope="store",
    description="an entry filed under the wrong digest is a miss",
)
def _store_misfiled(ctx: CheckContext, rec: Recorder) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        store = _fresh_store(root)
        store.put(_OTHER, _payload_for(_OTHER))
        wrong = store.path_for(_DIGEST)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(store.path_for(_OTHER).read_bytes())
        _expect_miss(rec, store, _DIGEST[:8], "misfiled entry")
        # The correctly-filed original must be unaffected.
        rec.expect_equal(
            store.get(_OTHER),
            _payload_for(_OTHER),
            _OTHER[:8],
            "correctly-filed neighbour after misfiled read",
        )


@invariant(
    "store-midwrite-crash",
    scope="store",
    description="a writer killed mid-write leaves a miss, not a wreck",
)
def _store_midwrite_crash(ctx: CheckContext, rec: Recorder) -> None:
    # A child process writes the entry *non-atomically* (straight to the
    # final path, half the bytes, then blocks) and is killed — the
    # worst-case torn write an interrupted ``os.replace``-less writer
    # could leave.  The reader must see a clean miss.
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        store = _fresh_store(root)
        store.put(_DIGEST, _payload_for(_DIGEST))
        path = store.path_for(_DIGEST)
        blob = path.read_bytes()
        path.unlink()
        half = len(blob) // 2
        sentinel = pathlib.Path(root) / "wrote-half"
        script = (
            "import pathlib, sys, time\n"
            "path = pathlib.Path(sys.argv[1])\n"
            "blob = pathlib.Path(sys.argv[2]).read_bytes()\n"
            f"half = {half}\n"
            "with open(path, 'wb') as fh:\n"
            "    fh.write(blob[:half])\n"
            "    fh.flush()\n"
            "    pathlib.Path(sys.argv[3]).touch()\n"
            "    time.sleep(60)\n"
        )
        source = pathlib.Path(root) / "full-blob"
        source.write_bytes(blob)
        child = subprocess.Popen(
            [sys.executable, "-c", script,
             str(path), str(source), str(sentinel)]
        )
        try:
            deadline = time.monotonic() + 30.0
            while not sentinel.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("mid-write child never signalled")
                time.sleep(0.01)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()
        _expect_miss(rec, store, f"half@{half}", "torn write")
        # And the store heals: a subsequent put round-trips.
        store.put(_DIGEST, _payload_for(_DIGEST))
        rec.expect_equal(
            store.get(_DIGEST),
            _payload_for(_DIGEST),
            _DIGEST[:8],
            "round-trip after recovering from a torn write",
        )


# ------------------------------------------------- concurrency workers
# Module-level so ``multiprocessing`` can target them under any start
# method; failures come home as exit codes.
def _race_writer(root: str, max_bytes: int, digests, seconds: float) -> None:
    store = _fresh_store(root, max_bytes=max_bytes)
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline:
        digest = digests[i % len(digests)]
        store.put(digest, _payload_for(digest))
        i += 1
    os._exit(0)


def _race_evictor(root: str, digests, seconds: float) -> None:
    # A hostile evictor: clears entries out from under readers.
    store = _fresh_store(root)
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline:
        store._discard(store.path_for(digests[i % len(digests)]))
        i += 1
        if i % 50 == 0:
            time.sleep(0.001)
    os._exit(0)


def _race_reader(root: str, digests, seconds: float) -> None:
    store = _fresh_store(root)
    deadline = time.monotonic() + seconds
    i = 0
    try:
        while time.monotonic() < deadline:
            digest = digests[i % len(digests)]
            result = store.get(digest)
            if result is not MISS and result != _payload_for(digest):
                os._exit(3)  # wrong artifact: the cardinal sin
            i += 1
    except Exception:
        os._exit(4)  # corruption must never raise
    os._exit(0)


@invariant(
    "store-race",
    scope="store",
    description="concurrent writers/evictors/readers never produce a "
                "wrong artifact or an exception, and leave the byte "
                "ledger an upper bound",
)
def _store_race(ctx: CheckContext, rec: Recorder) -> None:
    seconds = 0.6 if ctx.quick else 2.5
    digests = [f"{i:02x}" + "e" * 62 for i in range(8)]
    with tempfile.TemporaryDirectory(prefix="repro-check-") as root:
        # A cap small enough that every put() evicts someone.
        entry_bytes = len(pickle.dumps(_payload_for(digests[0]))) + 256
        cap = 3 * entry_bytes
        processes = [
            ("writer-0", multiprocessing.Process(
                target=_race_writer, args=(root, cap, digests, seconds),
            )),
            ("writer-1", multiprocessing.Process(
                target=_race_writer, args=(root, cap, digests, seconds),
            )),
            ("evictor", multiprocessing.Process(
                target=_race_evictor, args=(root, digests, seconds)
            )),
            ("reader-0", multiprocessing.Process(
                target=_race_reader, args=(root, digests, seconds)
            )),
            ("reader-1", multiprocessing.Process(
                target=_race_reader, args=(root, digests, seconds)
            )),
        ]
        for _, process in processes:
            process.start()
        for _, process in processes:
            process.join(timeout=60.0)
        for name, process in processes:
            code = process.exitcode
            if code is None:
                process.kill()
                process.join()
                code = -1
            rec.expect(
                code == 0,
                name,
                {
                    3: "reader observed a WRONG artifact",
                    4: "reader crashed on a corrupt entry",
                }.get(code, f"{name} exited with code {code}"),
            )
        # The byte ledger survived the race as an upper bound on the
        # entries left on disk, so the next capped put still evicts.
        capped = _fresh_store(root, max_bytes=cap)
        on_disk = capped.stats().total_bytes
        ledger = capped.ledger_bytes()
        rec.expect(
            ledger is not None and ledger >= on_disk,
            "ledger",
            f"ledger {ledger} below the {on_disk} bytes on disk",
        )
        capped.put(_DIGEST, _payload_for(_DIGEST))
        after = capped.stats().total_bytes
        kept = capped.size_of(_DIGEST)
        rec.expect(
            after <= cap + kept,
            "cap",
            f"{after} bytes after a capped put, over {cap} + kept {kept}",
        )
        # Afterwards the store still works.
        store = _fresh_store(root)
        store.put(_DIGEST, _payload_for(_DIGEST))
        rec.expect_equal(
            store.get(_DIGEST),
            _payload_for(_DIGEST),
            _DIGEST[:8],
            "round-trip after the race",
        )
