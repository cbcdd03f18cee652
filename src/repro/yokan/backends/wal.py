"""The WAL record format, and the durable ``map`` built on it.

This module is the one home of the storage layer's log framing.  A record is a
``<II`` header (payload length, crc32) followed by the payload; the
LSM's WAL segments, the B-tree's node file and the durable map's log
all write and read records through :func:`write_frame` and
:func:`read_frame`.  Log payloads start with an opcode:

- ``P``: single put    -- ``P u32(klen) key value``
- ``D``: single erase  -- ``D key``
- ``M``: batched puts  -- ``M u32(n) (u32(klen) u32(vlen) key value)*``
- ``E``: batched erase -- ``E u32(n) (u32(klen) key)*``

:func:`decode_record` turns a payload back into ``(key, value)``
mutations, ``value`` being ``None`` for an erase.  Batch verbs log one
record per batch, so the hot ingest path (write batches flushing via
``put_multi``) pays one frame per flush, not one per key.

:class:`DurableBackend` is the durable ``map``: a
:class:`~repro.yokan.backends.memory.MemoryBackend` whose mutating
verbs append a record to ``wal_path`` *before* they are acknowledged.
Once the log passes ``wal_checkpoint_bytes`` the whole map is
snapshotted to an atomic checkpoint file (tmp + fsync + ``os.replace``)
and the log truncated.  On open the checkpoint (if any) is loaded and
the log replayed on top; replay stops cleanly at a torn tail and is
idempotent (erases of absent keys are skipped), so re-replaying after
a crash during checkpointing is safe.
"""

from __future__ import annotations

import io
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import CorruptionError, KeyNotFound
from repro.yokan.backends.memory import MemoryBackend

_FRAME = struct.Struct("<II")  # payload length, crc32
_U32 = struct.Struct("<I")
_ENTRY = struct.Struct("<II")  # key length, value length
_CKPT_MAGIC = b"CKPT0001"
_CKPT_FOOTER = struct.Struct("<QI")  # entry count, crc32 of entry region

#: Default checkpoint cadence: snapshot once the WAL passes this size.
DEFAULT_CHECKPOINT_BYTES = 4 * 1024 * 1024

# -- framing -------------------------------------------------------------------


def write_frame(f: BinaryIO, payload: bytes) -> int:
    """Append one framed record to ``f``; returns the bytes written."""
    f.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
    f.write(payload)
    return _FRAME.size + len(payload)


def read_frame(f: BinaryIO) -> Optional[bytes]:
    """The payload of the record at ``f``'s position.

    ``None`` at end of file and at a record that is short or fails its
    CRC -- a torn tail from a crash mid-append.
    """
    header = f.read(_FRAME.size)
    if len(header) < _FRAME.size:
        return None
    length, crc = _FRAME.unpack(header)
    payload = f.read(length)
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    return payload


def read_wal_records(path: str) -> Tuple[list[bytes], int]:
    """All whole records in the log at ``path``.

    Returns ``(payloads, torn_bytes)`` where ``torn_bytes`` counts the
    trailing bytes that did not form a complete, CRC-valid record.
    Never raises on a torn tail -- durability means recovering *up to*
    the last whole record.
    """
    payloads: list[bytes] = []
    if not os.path.exists(path):
        return payloads, 0
    with open(path, "rb") as f:
        data = f.read()
    # Parse from memory: a damaged header's length then reads short
    # instead of sizing a buffer from garbage.
    buf = io.BytesIO(data)
    whole = 0
    while (payload := read_frame(buf)) is not None:
        payloads.append(payload)
        whole = buf.tell()
    return payloads, len(data) - whole


# -- record codec ----------------------------------------------------------------


def encode_put(key: bytes, value: bytes) -> bytes:
    return b"P" + _U32.pack(len(key)) + key + value


def encode_erase(key: bytes) -> bytes:
    return b"D" + key


def encode_put_multi(pairs: Sequence[Tuple[bytes, bytes]]) -> bytes:
    parts = [b"M", _U32.pack(len(pairs))]
    for key, value in pairs:
        parts.append(_ENTRY.pack(len(key), len(value)))
        parts.append(key)
        parts.append(value)
    return b"".join(parts)


def encode_erase_multi(keys: Sequence[bytes]) -> bytes:
    parts = [b"E", _U32.pack(len(keys))]
    for key in keys:
        parts.append(_U32.pack(len(key)))
        parts.append(key)
    return b"".join(parts)


def decode_record(payload: bytes) -> Iterator[Tuple[bytes, Optional[bytes]]]:
    """Yield (key, value-or-None-for-erase) mutations from one record."""
    op = payload[:1]
    if op == b"P":
        (klen,) = _U32.unpack_from(payload, 1)
        yield payload[5:5 + klen], payload[5 + klen:]
    elif op == b"D":
        yield payload[1:], None
    elif op == b"M":
        (count,) = _U32.unpack_from(payload, 1)
        offset = 5
        for _ in range(count):
            klen, vlen = _ENTRY.unpack_from(payload, offset)
            offset += _ENTRY.size
            key = payload[offset:offset + klen]
            offset += klen
            yield key, payload[offset:offset + vlen]
            offset += vlen
    elif op == b"E":
        (count,) = _U32.unpack_from(payload, 1)
        offset = 5
        for _ in range(count):
            (klen,) = _U32.unpack_from(payload, offset)
            offset += 4
            yield payload[offset:offset + klen], None
            offset += klen
    else:
        raise CorruptionError(f"unknown WAL opcode {op!r}")


# -- checkpoints ---------------------------------------------------------------


@dataclass
class DurabilityStats:
    """Counters surfaced by ``DurableBackend.stats``."""

    wal_records: int = 0
    wal_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    replayed_records: int = 0
    replayed_keys: int = 0
    replay_seconds: float = 0.0
    torn_tail_bytes: int = 0
    checkpoint_loaded: bool = False


def checkpoint_path(wal_path: str) -> str:
    return wal_path + ".ckpt"


def _write_checkpoint(path: str, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
    """Atomically snapshot ``pairs`` to ``path``; returns bytes written."""
    tmp = path + ".tmp"
    count = 0
    crc = 0
    with open(tmp, "wb") as f:
        f.write(_CKPT_MAGIC)
        for key, value in pairs:
            entry = _ENTRY.pack(len(key), len(value)) + key + value
            crc = zlib.crc32(entry, crc)
            f.write(entry)
            count += 1
        f.write(_CKPT_FOOTER.pack(count, crc))
        f.flush()
        os.fsync(f.fileno())
        size = f.tell()
    os.replace(tmp, path)
    return size


def _read_checkpoint(path: str) -> Optional[list[Tuple[bytes, bytes]]]:
    """Entries from the checkpoint at ``path`` (None when absent)."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(_CKPT_MAGIC) + _CKPT_FOOTER.size:
        raise CorruptionError(f"{path}: checkpoint truncated")
    if data[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CorruptionError(f"{path}: bad checkpoint magic")
    count, crc = _CKPT_FOOTER.unpack_from(data, len(data) - _CKPT_FOOTER.size)
    region = data[len(_CKPT_MAGIC):len(data) - _CKPT_FOOTER.size]
    if zlib.crc32(region) != crc:
        raise CorruptionError(f"{path}: checkpoint CRC mismatch")
    entries: list[Tuple[bytes, bytes]] = []
    offset = 0
    for _ in range(count):
        klen, vlen = _ENTRY.unpack_from(region, offset)
        offset += _ENTRY.size
        key = region[offset:offset + klen]
        offset += klen
        entries.append((key, region[offset:offset + vlen]))
        offset += vlen
    return entries


# -- the durable map -------------------------------------------------------------


class DurableBackend(MemoryBackend):
    """The ``map`` backend with a WAL + checkpoints under ``wal_path``.

    Not registered as its own kind: ``open_backend("map", ...)`` builds
    one whenever the database config carries a ``wal_path``.
    ``sync_wal`` fsyncs every append, as it does for the LSM.
    """

    def __init__(self, wal_path: str,
                 wal_checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
                 sync_wal: bool = False, seed: int = 0x5EED):
        super().__init__(seed=seed)
        self.wal_path = wal_path
        self.ckpt_path = checkpoint_path(wal_path)
        self.checkpoint_bytes = int(wal_checkpoint_bytes)
        self.sync_wal = bool(sync_wal)
        self.stats = DurabilityStats()
        parent = os.path.dirname(wal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._recover()
        self._wal = open(wal_path, "ab")
        self._wal_size = self._wal.tell()

    def _apply(self, mutations: Iterable[Tuple[bytes, Optional[bytes]]]
               ) -> int:
        """Apply (key, value-or-None) mutations to the map, unlogged.

        Returns how many took effect: erases of absent keys are skipped.
        """
        applied = 0
        for key, value in mutations:
            if value is None:
                try:
                    super().erase(key)
                except KeyNotFound:
                    continue
            else:
                super().put(key, value)
            applied += 1
        return applied

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        start = time.perf_counter()
        entries = _read_checkpoint(self.ckpt_path)
        if entries is not None:
            self.stats.checkpoint_loaded = True
            self.stats.replayed_keys += self._apply(entries)
        payloads, torn = read_wal_records(self.wal_path)
        self.stats.torn_tail_bytes = torn
        if torn:
            # Drop the torn tail so new appends start at a record edge.
            whole = os.path.getsize(self.wal_path) - torn
            with open(self.wal_path, "ab") as f:
                f.truncate(whole)
        for payload in payloads:
            self.stats.replayed_records += 1
            self.stats.replayed_keys += self._apply(decode_record(payload))
        self.stats.replay_seconds = time.perf_counter() - start

    # -- WAL append ----------------------------------------------------------

    def _append(self, payload: bytes) -> None:
        size = write_frame(self._wal, payload)
        # Flush to the OS so a simulated crash (which abandons the file
        # object without a clean close) still finds the record on disk.
        self._wal.flush()
        if self.sync_wal:
            os.fsync(self._wal.fileno())
        self._wal_size += size
        self.stats.wal_records += 1
        self.stats.wal_bytes += size

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint once the WAL outgrows the cadence.

        Called *after* the map applied the mutation the last record
        describes: checkpointing from ``_append`` would snapshot the
        pre-mutation state and then truncate away the only record of
        the in-flight write.
        """
        if self._wal_size >= self.checkpoint_bytes:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Snapshot the map and truncate the WAL."""
        self._check_open()
        size = _write_checkpoint(self.ckpt_path, self.scan())
        self._wal.close()
        self._wal = open(self.wal_path, "wb")
        self._wal_size = 0
        self.stats.checkpoints += 1
        self.stats.checkpoint_bytes += size

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        self._check_open()
        self._wal.flush()
        os.fsync(self._wal.fileno())

    def close(self) -> None:
        if not self._closed:
            self._wal.flush()
            self._wal.close()
        super().close()

    def crash(self) -> None:
        """Simulate power loss: abandon state without flushing buffers.

        Every record already reached the OS via the per-append flush,
        so closing the file here changes nothing on disk -- the WAL is
        frozen exactly as the "dying" process left it.  (Closing the
        raw fd instead would leak it to Python's file object, whose
        finalizer could later close a reused descriptor number owned by
        a different backend.)
        """
        super().crash()
        try:
            self._wal.close()
        except OSError:
            pass

    # -- mutating verbs (logged) ---------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        key, value = bytes(key), bytes(value)
        self._append(encode_put(key, value))
        super().put(key, value)
        self._maybe_checkpoint()

    def erase(self, key: bytes) -> None:
        self._check_open()
        key = bytes(key)
        super().erase(key)  # raises KeyNotFound before logging
        self._append(encode_erase(key))
        self._maybe_checkpoint()

    def put_multi(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        self._check_open()
        pairs = [(bytes(k), bytes(v)) for k, v in pairs]
        if not pairs:
            return 0
        self._append(encode_put_multi(pairs))
        stored = self._apply(pairs)
        self._maybe_checkpoint()
        return stored

    def erase_multi(self, keys: Sequence[bytes]) -> int:
        self._check_open()
        keys = [bytes(k) for k in keys]
        if not keys:
            return 0
        self._append(encode_erase_multi(keys))
        removed = self._apply((key, None) for key in keys)
        self._maybe_checkpoint()
        return removed
