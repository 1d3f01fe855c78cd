"""Sealed JSON artifacts: atomic writes, content checksums, save faults.

The campaign store, the shard ledger and the gateway checkpoints all
persist JSON the same way: written atomically (temp file + ``os.replace``
in the same directory) and sealed with a SHA-256 digest of the canonical
payload that the loader re-computes.  This module holds those shared
pieces.  It imports only the standard library, so any layer can use it
without pulling in another layer's package.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as canonical JSON via rename (all-or-nothing)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # Includes KeyboardInterrupt: never leave a half-written temp file
        # that a later directory scan could mistake for an artifact.
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cell_checksum(payload: dict) -> str:
    """Canonical content digest of a cell payload (sans integrity seal)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _apply_save_faults(path: str, ops) -> None:
    """Damage a just-written artifact per injected save directives.

    The chaos stand-in for bit rot, torn disks, and truncated writes that
    the load-side verification must catch.
    """
    for op in ops:
        kind = op["op"]
        size = os.path.getsize(path)
        if kind == "empty":
            with open(path, "w"):
                pass
        elif kind == "truncate":
            keep = int(size * float(op.get("keep_frac", 0.5)))
            os.truncate(path, keep)
        elif kind == "bitflip":
            offset = min(int(size * float(op.get("offset_frac", 0.5))), size - 1)
            with open(path, "r+b") as fh:
                fh.seek(max(offset, 0))
                byte = fh.read(1)
                fh.seek(max(offset, 0))
                fh.write(bytes([byte[0] ^ 0xFF]))
