"""Canonical JSON: the one byte form every content digest hashes.

Compact separators and sorted keys, so a document's bytes depend on
its content alone.  The model digest, the fault and workload schedule
digests and the soak and fuzz reports all encode with :func:`encode`
and hash with :func:`sha256_hex`.
"""

from __future__ import annotations

import hashlib
import json

#: Canonical JSON of a document.
encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text``'s UTF-8 bytes."""
    return hashlib.sha256(text.encode()).hexdigest()
