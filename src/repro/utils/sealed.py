"""Sealed JSON artifacts: durable writes, content seals, quarantine.

The campaign store, the shard ledger and the gateway checkpoints all
persist JSON the same way, and this module is the one place that knows
how:

* **writes** are atomic and durable — a temp file in the target's
  directory, fsync'd, then moved into place (:func:`atomic_write_json`,
  last writer wins) or hard-linked into place (:func:`publish_json`,
  first writer wins), with the directory fsync'd after the move so the
  new name survives a power cut too;
* **seals** are a SHA-256 digest of the canonical payload stored under
  an ``"integrity"`` key (:func:`seal`), popped and recomputed on load
  (:func:`unseal`);
* **quarantine** moves an artifact that failed verification aside for
  post-mortem (:func:`quarantine`), so its key becomes re-executable.

Each caller keeps its own read loop, error class and messages.  This
module imports only the standard library, so any layer can use it
without pulling in another layer's package.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional

#: The key a seal is stored under, next to the payload's own keys.
SEAL_KEY = "integrity"

#: The only seal algorithm written or accepted.
SEAL_ALGO = "sha256"


def _write_synced(fd: int, payload: dict) -> None:
    """Write ``payload`` as canonical JSON to ``fd``, fsync it, close it."""
    with os.fdopen(fd, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(directory: str) -> None:
    """Flush ``directory``'s entries, making a rename or link durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as canonical JSON via rename (all-or-nothing)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        _write_synced(fd, payload)
        os.replace(tmp, path)
    except BaseException:
        # Includes KeyboardInterrupt: never leave a half-written temp file
        # that a later directory scan could mistake for an artifact.
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _fsync_dir(directory)


def publish_json(path: str, payload: dict) -> bool:
    """Publish ``payload`` at ``path`` unless an artifact is already there.

    The temp file is fsync'd and hard-linked into place, so ``path``
    appears whole or not at all and exactly one concurrent writer wins.
    Returns whether this call published; the directory is fsync'd only
    then.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        _write_synced(fd, payload)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
    finally:
        os.unlink(tmp)
    _fsync_dir(directory)
    return True


def cell_checksum(payload: dict) -> str:
    """Canonical content digest of a cell payload (sans integrity seal)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def seal(payload: dict) -> tuple[dict, str]:
    """``(body, digest)``: a copy of ``payload`` carrying its seal.

    Any seal already on ``payload`` is replaced, never hashed.
    """
    body = dict(payload)
    body.pop(SEAL_KEY, None)
    digest = cell_checksum(body)
    body[SEAL_KEY] = {"algo": SEAL_ALGO, "digest": digest}
    return body, digest


def unseal(body: dict) -> tuple[Optional[str], str]:
    """Pop the seal off a loaded ``body`` (in place).

    Returns ``(stored, computed)``: the sealed SHA-256 digest — ``None``
    when ``body`` has no well-formed seal — and the digest of what is
    left.  The artifact is intact exactly when the two are equal.
    """
    found = body.pop(SEAL_KEY, None)
    stored = None
    if isinstance(found, dict) and found.get("algo") == SEAL_ALGO:
        stored = found.get("digest")
    return stored, cell_checksum(body)


def quarantine(path: str, quarantine_dir: str) -> str:
    """Move a damaged artifact into ``quarantine_dir``; returns its new path.

    The artifact keeps its file name and is preserved for post-mortem
    rather than deleted; its old path is free for a re-executed copy.
    """
    os.makedirs(quarantine_dir, exist_ok=True)
    dst = os.path.join(quarantine_dir, os.path.basename(path))
    os.replace(path, dst)
    return dst


def _apply_save_faults(path: str, ops) -> None:
    """Damage a just-written artifact per injected save directives.

    The chaos stand-in for bit rot, torn disks, and truncated writes that
    the load-side verification must catch.  A ``bitflip`` on a file an
    earlier directive already emptied is a no-op: there is no byte left
    to flip and the artifact is damaged anyway.
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
        elif kind == "bitflip" and size:
            offset = min(int(size * float(op.get("offset_frac", 0.5))), size - 1)
            with open(path, "r+b") as fh:
                fh.seek(max(offset, 0))
                byte = fh.read(1)
                fh.seek(max(offset, 0))
                fh.write(bytes([byte[0] ^ 0xFF]))
