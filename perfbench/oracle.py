"""Oracle checks on what a timed pass produced.

Every check here runs outside the timed region and compares a result
with something computed independently of the path that produced it:
the pure-Python reference checksum of each program, the decoder's
round trip of every compressed image, the retained reference fetch
model, and the static cycle bounds of the ``static`` rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import List


def expected_checksum(name: str, scale) -> int:
    """The pure-Python model's result for one benchmark."""
    from repro.programs.suite import reference_checksum

    return reference_checksum(name, scale)


def checksum_ok(study, expected: int) -> bool:
    """Does the emulated run leave the expected result in memory?"""
    address = study.compiled.module.globals["result"].address
    return study.run.machine.load_word(address) == expected


def bad_images(study) -> List[str]:
    """Scheme keys of the study's compressed images that mis-decode."""
    bad = []
    for key, image in sorted(study._images.items()):
        try:
            image.verify()
        except Exception:  # any failure to round-trip is a mis-decode
            bad.append(key)
    return bad


def fetch_matches_reference(study, config, got) -> bool:
    """Is ``got`` what the reference fetch model gives for ``config``?"""
    from repro.fetch.engine import simulate_fetch_reference
    from repro.runtime.tasks import fetch_image_key

    expected = simulate_fetch_reference(
        study.compressed(fetch_image_key(config.scheme)),
        study.run.block_trace,
        config,
    )
    return got == expected


def static_row_bracketed(rows) -> bool:
    """``bound_lo <= static_cycles <= bound_hi`` on every benchmark row."""
    headers, body = rows
    col = {name: i for i, name in enumerate(headers)}
    return all(
        row[col["bound_lo"]] <= row[col["static_cycles"]]
        <= row[col["bound_hi"]]
        for row in body
        if row[0] not in ("average", "median")
    )


def digest(value) -> str:
    """Stable SHA-256 of rows or fetch results (floats kept exact)."""

    def plain(item):
        if dataclasses.is_dataclass(item) and not isinstance(item, type):
            return dataclasses.asdict(item)
        raise TypeError(f"cannot digest {type(item).__name__}")

    blob = json.dumps(value, sort_keys=True, default=plain)
    return hashlib.sha256(blob.encode()).hexdigest()
