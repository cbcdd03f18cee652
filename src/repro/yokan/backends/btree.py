"""A copy-on-write persistent B+tree backend: the BerkeleyDB stand-in.

Design (LMDB/BoltDB flavored):

- nodes are immutable records in an append-only data file, framed
  like WAL records (:func:`repro.yokan.backends.wal.write_frame`); a
  node's id is its file offset;
- mutations copy the root-to-leaf path, appending new nodes, then
  atomically swap the header (root pointer + entry count) on commit;
- a crash between append and header swap leaves the previous, intact
  tree visible -- recovery is free;
- deletion is lazy (no rebalancing); :meth:`rebuild` compacts the file
  and restores node occupancy.

``commit_every`` > 1 amortizes header swaps over several mutations, at
the cost of losing the uncommitted tail on a crash (like BerkeleyDB
with deferred sync).
"""

from __future__ import annotations

import bisect
import json
import os
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.errors import CorruptionError, KeyNotFound
from repro.serial import dumps, loads
from repro.yokan.backend import Backend, register_backend
from repro.yokan.backends.wal import read_frame, write_frame

_LEAF, _INNER = 0, 1


class _Node:
    __slots__ = ("kind", "keys", "payload")

    def __init__(self, kind: int, keys: list, payload: list):
        self.kind = kind
        self.keys = keys      # sorted separator keys (inner) or entry keys (leaf)
        self.payload = payload  # child offsets (inner) or values (leaf)

    @property
    def is_leaf(self) -> bool:
        return self.kind == _LEAF


@register_backend("btree")
class BTreeBackend(Backend):
    """Persistent ordered store with copy-on-write B+tree pages."""

    def __init__(self, path: str, order: int = 64, commit_every: int = 1,
                 cache_nodes: int = 4096):
        super().__init__()
        if order < 4:
            raise ValueError("order must be >= 4")
        self.path = path
        self.order = order
        self.commit_every = max(1, commit_every)
        self._cache_limit = cache_nodes
        os.makedirs(path, exist_ok=True)
        self._data_path = os.path.join(path, "btree.dat")
        self._head_path = os.path.join(path, "btree.head")
        self._cache: "OrderedDict[int, _Node]" = OrderedDict()
        self._root: Optional[int] = None
        self._count = 0
        self._pending = 0
        self._load_header()
        self._data = open(self._data_path, "ab")

    # -- header ---------------------------------------------------------

    def _load_header(self) -> None:
        if os.path.exists(self._head_path):
            with open(self._head_path) as f:
                head = json.load(f)
            self._root = head["root"]
            self._count = head["count"]
        else:
            self._root = None
            self._count = 0
        if not os.path.exists(self._data_path):
            open(self._data_path, "wb").close()

    def _commit(self, force: bool = False) -> None:
        self._pending += 1
        if not force and self._pending < self.commit_every:
            return
        self._pending = 0
        self._data.flush()
        os.fsync(self._data.fileno())
        tmp = self._head_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"root": self._root, "count": self._count}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._head_path)

    # -- node io ---------------------------------------------------------

    def _append_node(self, node: _Node) -> int:
        payload = dumps((node.kind, node.keys, node.payload))
        offset = self._data.tell()
        write_frame(self._data, payload)
        self._cache_put(offset, node)
        return offset

    def _read_node(self, offset: int) -> _Node:
        node = self._cache.get(offset)
        if node is not None:
            self._cache.move_to_end(offset)
            return node
        # Reads may hit the tail still in the write buffer.
        self._data.flush()
        with open(self._data_path, "rb") as f:
            f.seek(offset)
            payload = read_frame(f)
        if payload is None:
            raise CorruptionError(f"corrupt node at {offset}")
        kind, keys, values = loads(payload)
        node = _Node(kind, list(keys), list(values))
        self._cache_put(offset, node)
        return node

    def _cache_put(self, offset: int, node: _Node) -> None:
        existing = self._cache.pop(offset, None)
        if existing is None:
            while len(self._cache) >= self._cache_limit:
                self._cache.popitem(last=False)
        self._cache[offset] = node

    # -- tree ops ---------------------------------------------------------

    def _find_leaf(self, key: bytes) -> tuple[list[tuple[int, int]], _Node]:
        """Descend to the leaf for ``key``.

        Returns (path, leaf) where path is [(node_offset, child_index)]
        from root down (excluding the leaf itself).
        """
        path: list[tuple[int, int]] = []
        offset = self._root
        node = self._read_node(offset)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            path.append((offset, idx))
            offset = node.payload[idx]
            node = self._read_node(offset)
        path.append((offset, -1))
        return path, node

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        key, value = bytes(key), bytes(value)
        if self._root is None:
            self._root = self._append_node(_Node(_LEAF, [key], [value]))
            self._count = 1
            self._commit()
            return
        path, leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        new_keys = list(leaf.keys)
        new_vals = list(leaf.payload)
        if idx < len(new_keys) and new_keys[idx] == key:
            new_vals[idx] = value
        else:
            new_keys.insert(idx, key)
            new_vals.insert(idx, value)
            self._count += 1
        self._replace_path(path, _Node(_LEAF, new_keys, new_vals))
        self._commit()

    def _replace_path(self, path: list[tuple[int, int]], new_leaf: _Node) -> None:
        """Copy-on-write the descent path, splitting overflowing nodes."""
        # carry: list of (separator_key, node_offset) replacing one child.
        node = new_leaf
        carry: list[tuple[Optional[bytes], int]]
        if len(node.keys) > self.order:
            mid = len(node.keys) // 2
            left = _Node(node.kind, node.keys[:mid], node.payload[:mid])
            right = _Node(node.kind, node.keys[mid:], node.payload[mid:])
            sep = right.keys[0]
            carry = [(None, self._append_node(left)), (sep, self._append_node(right))]
        else:
            carry = [(None, self._append_node(node))]

        for offset, child_idx in reversed(path[:-1]):
            parent = self._read_node(offset)
            keys = list(parent.keys)
            children = list(parent.payload)
            # Replace child at child_idx with the carried node(s).
            children[child_idx : child_idx + 1] = [c for _, c in carry]
            extra_seps = [sep for sep, _ in carry[1:]]
            keys[child_idx:child_idx] = extra_seps
            node = _Node(_INNER, keys, children)
            if len(children) > self.order:
                mid = len(children) // 2
                sep = keys[mid - 1]
                left = _Node(_INNER, keys[: mid - 1], children[:mid])
                right = _Node(_INNER, keys[mid:], children[mid:])
                carry = [
                    (None, self._append_node(left)),
                    (sep, self._append_node(right)),
                ]
            else:
                carry = [(None, self._append_node(node))]

        if len(carry) == 1:
            self._root = carry[0][1]
        else:
            seps = [sep for sep, _ in carry[1:]]
            children = [c for _, c in carry]
            self._root = self._append_node(_Node(_INNER, seps, children))

    def get(self, key: bytes) -> bytes:
        self._check_open()
        if self._root is None:
            raise KeyNotFound(repr(key))
        _, leaf = self._find_leaf(bytes(key))
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.payload[idx]
        raise KeyNotFound(repr(key))

    def exists(self, key: bytes) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFound:
            return False

    def erase(self, key: bytes) -> None:
        self._check_open()
        key = bytes(key)
        if self._root is None:
            raise KeyNotFound(repr(key))
        path, leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFound(repr(key))
        new_keys = list(leaf.keys)
        new_vals = list(leaf.payload)
        del new_keys[idx]
        del new_vals[idx]
        self._count -= 1
        # Lazy deletion: the leaf may become empty; scans skip it.
        self._replace_path(path, _Node(_LEAF, new_keys, new_vals))
        self._commit()

    def __len__(self) -> int:
        return self._count

    def scan(self, start: bytes = b"", inclusive: bool = True
             ) -> Iterator[Tuple[bytes, bytes]]:
        self._check_open()
        if self._root is None:
            return
        # Iterative DFS from the lower bound.
        stack: list[tuple[int, int]] = []  # (node offset, next child index)
        offset = self._root
        node = self._read_node(offset)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, start)
            stack.append((offset, idx + 1))
            offset = node.payload[idx]
            node = self._read_node(offset)
        # Emit from this leaf, then walk the stack rightward.
        idx = bisect.bisect_left(node.keys, start)
        while True:
            for i in range(idx, len(node.keys)):
                key = node.keys[i]
                if key < start or (not inclusive and key == start):
                    continue
                yield key, node.payload[i]
            # Advance to the next leaf.
            while stack:
                parent_offset, child_idx = stack.pop()
                parent = self._read_node(parent_offset)
                if child_idx < len(parent.payload):
                    stack.append((parent_offset, child_idx + 1))
                    offset = parent.payload[child_idx]
                    node = self._read_node(offset)
                    while not node.is_leaf:
                        stack.append((offset, 1))
                        offset = node.payload[0]
                        node = self._read_node(offset)
                    idx = 0
                    break
            else:
                return

    # -- maintenance ---------------------------------------------------------

    def rebuild(self) -> None:
        """Compact the data file: rewrite the tree bottom-up, dense."""
        self._check_open()
        entries = list(self.scan())
        self._data.close()
        os.unlink(self._data_path)
        self._cache.clear()
        self._data = open(self._data_path, "ab")
        self._root = None
        self._count = 0
        if entries:
            self._bulk_load(entries)
        self._commit(force=True)

    def _bulk_load(self, entries: list[Tuple[bytes, bytes]]) -> None:
        """Build a dense tree from sorted entries."""
        fanout = self.order
        level: list[tuple[bytes, int]] = []  # (first key, offset)
        for i in range(0, len(entries), fanout):
            chunk = entries[i : i + fanout]
            node = _Node(_LEAF, [k for k, _ in chunk], [v for _, v in chunk])
            level.append((chunk[0][0], self._append_node(node)))
        while len(level) > 1:
            next_level: list[tuple[bytes, int]] = []
            for i in range(0, len(level), fanout):
                chunk = level[i : i + fanout]
                seps = [k for k, _ in chunk[1:]]
                children = [off for _, off in chunk]
                node = _Node(_INNER, seps, children)
                next_level.append((chunk[0][0], self._append_node(node)))
            level = next_level
        self._root = level[0][1]
        self._count = len(entries)

    @property
    def file_bytes(self) -> int:
        """Current data-file size (grows until :meth:`rebuild`)."""
        self._data.flush()
        return os.path.getsize(self._data_path)

    def flush(self) -> None:
        self._check_open()
        self._commit(force=True)

    def close(self) -> None:
        if not self.closed:
            self._commit(force=True)
            self._data.close()
            super().close()

    def crash(self) -> None:
        """Simulate losing the process: mutations after the last commit
        are lost, since the header never points at their nodes.  The
        data file is closed here so its buffered, unreferenced tail
        lands before a restarted backend appends, never among its
        nodes."""
        super().crash()
        self._data.close()
