"""Communicators, point-to-point messaging, and collectives."""

from __future__ import annotations

import operator
import threading
import time
from functools import reduce as _functools_reduce
from typing import Any, Callable, Optional, Sequence

from repro.errors import MPIError

ANY_SOURCE = -1
ANY_TAG = -1

# Reduction operators (subset of the MPI predefined ops).
SUM = operator.add
PROD = operator.mul
MAX = max
MIN = min

#: Collective operations use this reserved tag space (< _COLL_TAG_BASE is
#: invalid for user messages).
_COLL_TAG_BASE = -1000


def Wtime() -> float:
    """MPI_Wtime: monotonic wall-clock seconds."""
    return time.monotonic()


class _Mailbox:
    """Per-rank inbox with (source, tag) matching."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: list[tuple[int, int, Any]] = []
        #: set by :meth:`abort`; every blocked and later ``take`` raises it.
        self._aborted: Optional[str] = None

    def abort(self, reason: str) -> None:
        with self._cond:
            self._aborted = reason
            self._cond.notify_all()

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def take(self, source: int, tag: int, timeout: Optional[float]) -> tuple[int, int, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._aborted is not None:
                    raise MPIError(self._aborted)
                for i, (src, mtag, payload) in enumerate(self._messages):
                    if source not in (ANY_SOURCE, src):
                        continue
                    if tag not in (ANY_TAG, mtag):
                        continue
                    del self._messages[i]
                    return src, mtag, payload
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        raise MPIError(
                            f"recv(source={source}, tag={tag}) timed out"
                        )


class _Backend:
    """Shared state of one communicator: mailboxes and split bookkeeping.

    Sub-communicators from :meth:`split` share their root's abort: an
    abort on any of them wakes every mailbox of the whole tree.
    """

    def __init__(self, size: int, root: Optional["_Backend"] = None):
        self.size = size
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self._root = root if root is not None else self
        self._split_lock = threading.Lock()
        self._split_groups: dict[tuple[int, int], "_Backend"] = {}
        #: ``(rank, exc)`` of the first abort (set on the root only).
        self.abort_origin: Optional[tuple[int, BaseException]] = None

    def split_backend(self, seq: int, color: int, group_size: int) -> "_Backend":
        with self._split_lock:
            key = (seq, color)
            backend = self._split_groups.get(key)
            if backend is None:
                backend = _Backend(group_size, root=self._root)
                self._split_groups[key] = backend
                origin = self._root.abort_origin
                if origin is not None:
                    backend._wake(_abort_reason(*origin))
            return backend

    def abort(self, rank: int, exc: BaseException) -> None:
        """Fail every receive, blocked or later, in the whole tree.

        The first abort wins; later calls (ranks failing *because* of
        it) change nothing, so :attr:`abort_origin` names the rank
        whose error started it.
        """
        root = self._root
        with root._split_lock:
            if root.abort_origin is not None:
                return
            root.abort_origin = (rank, exc)
        root._wake(_abort_reason(rank, exc))

    def _wake(self, reason: str) -> None:
        for mailbox in self.mailboxes:
            mailbox.abort(reason)
        with self._split_lock:
            children = list(self._split_groups.values())
        for child in children:
            child._wake(reason)


def _abort_reason(rank: int, exc: BaseException) -> str:
    return f"aborted: rank {rank} failed: {exc!r}"


class Request:
    """Handle for a nonblocking operation (cf. ``MPI.Request``).

    ``wait`` returns the received payload (irecv) or ``None`` (isend);
    ``test`` polls without blocking.
    """

    def __init__(self, fn, poll_fn=None):
        self._fn = fn
        self._poll_fn = poll_fn
        self._done = False
        self._value = None

    def wait(self, timeout: Optional[float] = 60.0) -> Any:
        if not self._done:
            self._value = self._fn(timeout)
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        """(completed, value) without blocking."""
        if self._done:
            return True, self._value
        if self._poll_fn is None:  # sends complete immediately
            return True, self.wait()
        polled = self._poll_fn()
        if polled is not None:
            self._done = True
            self._value = polled[0]
            return True, self._value
        return False, None

    @staticmethod
    def waitall(requests: "list[Request]",
                timeout: Optional[float] = 60.0) -> list:
        return [request.wait(timeout) for request in requests]


class Communicator:
    """One rank's view of a communicator (cf. ``MPI.COMM_WORLD``)."""

    def __init__(self, backend: _Backend, rank: int):
        self._backend = backend
        self._rank = rank
        # Per-rank collective sequence number; all ranks execute
        # collectives in the same order, so sequences align.
        self._coll_seq = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._backend.size

    # Familiar mpi4py spellings.
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._backend.size

    def abort(self, exc: BaseException) -> None:
        """Fail fast: wake every rank blocked in (or later entering) a
        receive on this communicator, its parent and its splits with an
        :class:`MPIError` naming this rank and ``exc``.

        Unlike ``MPI_Abort`` this does not kill the ranks; each one
        unwinds through the error its receive raises.
        """
        self._backend.abort(self._rank, exc)

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise MPIError(f"dest {dest} out of range for size {self.size}")
        if tag < 0:
            raise MPIError("user tags must be non-negative")
        self._backend.mailboxes[dest].put(self._rank, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = 60.0) -> Any:
        _, _, payload = self._backend.mailboxes[self._rank].take(
            source, tag, timeout
        )
        return payload

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                         timeout: Optional[float] = 60.0) -> tuple[Any, int, int]:
        """Returns (payload, source, tag)."""
        src, mtag, payload = self._backend.mailboxes[self._rank].take(
            source, tag, timeout
        )
        return payload, src, mtag

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send.

        Buffered semantics: the message is enqueued immediately, so the
        request is already complete (like a small eager-protocol send).
        """
        self.send(obj, dest, tag)
        return Request(lambda timeout: None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; complete it with ``request.wait()``."""
        mailbox = self._backend.mailboxes[self._rank]

        def poll():
            with mailbox._cond:
                if mailbox._aborted is not None:
                    raise MPIError(mailbox._aborted)
                for i, (src, mtag, payload) in enumerate(mailbox._messages):
                    if source not in (ANY_SOURCE, src) or \
                            tag not in (ANY_TAG, mtag):
                        continue
                    del mailbox._messages[i]
                    return (payload,)
            return None

        return Request(lambda timeout: self.recv(source, tag, timeout),
                       poll_fn=poll)

    def _coll_send(self, obj: Any, dest: int, seq: int) -> None:
        self._backend.mailboxes[dest].put(self._rank, _COLL_TAG_BASE - seq, obj)

    def _coll_recv(self, source: int, seq: int) -> Any:
        _, _, payload = self._backend.mailboxes[self._rank].take(
            source, _COLL_TAG_BASE - seq, None
        )
        return payload

    # -- collectives --------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier over point-to-point messages."""
        seq = self._coll_seq
        self._coll_seq += 1
        distance = 1
        while distance < self.size:
            dest = (self._rank + distance) % self.size
            src = (self._rank - distance) % self.size
            self._coll_send(None, dest, seq)
            self._coll_recv(src, seq)
            distance *= 2

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        seq = self._coll_seq
        self._coll_seq += 1
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(obj, dest, seq)
            return obj
        return self._coll_recv(root, seq)

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        seq = self._coll_seq
        self._coll_seq += 1
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise MPIError(
                    f"scatter needs exactly {self.size} items at the root"
                )
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(objs[dest], dest, seq)
            return objs[root]
        return self._coll_recv(root, seq)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        seq = self._coll_seq
        self._coll_seq += 1
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                _src, tag, payload = self._backend.mailboxes[self._rank].take(
                    ANY_SOURCE, _COLL_TAG_BASE - seq, None
                )
                src_rank, value = payload
                out[src_rank] = value
            return out
        self._coll_send((self._rank, obj), root, seq)
        return None

    def allgather(self, obj: Any) -> list:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM,
               root: int = 0) -> Optional[Any]:
        gathered = self.gather(obj, root=root)
        if self._rank == root:
            return _functools_reduce(op, gathered)
        return None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def alltoall(self, objs: Sequence[Any]) -> list:
        if len(objs) != self.size:
            raise MPIError(f"alltoall needs exactly {self.size} items")
        seq = self._coll_seq
        self._coll_seq += 1
        out: list[Any] = [None] * self.size
        for dest in range(self.size):
            if dest == self._rank:
                out[dest] = objs[dest]
            else:
                self._coll_send((self._rank, objs[dest]), dest, seq)
        for _ in range(self.size - 1):
            _src, _tag, payload = self._backend.mailboxes[self._rank].take(
                ANY_SOURCE, _COLL_TAG_BASE - seq, None
            )
            src_rank, value = payload
            out[src_rank] = value
        return out

    # -- sub-communicators -----------------------------------------------------

    def split(self, color: int, key: Optional[int] = None) -> Optional["Communicator"]:
        """Partition ranks by ``color``; order within a group by ``key``.

        Color ``None`` (MPI_UNDEFINED) yields ``None``.  Implemented with
        an allgather so every rank learns the full grouping.
        """
        entry = (color, self._rank if key is None else key, self._rank)
        seq = self._coll_seq  # allgather advances it further below
        everyone = self.allgather(entry)
        if color is None:
            return None
        members = sorted(
            [(k, r) for c, k, r in everyone if c == color]
        )
        new_rank = members.index(
            (entry[1], self._rank)
        )
        backend = self._backend.split_backend(seq, color, len(members))
        return Communicator(backend, new_rank)


def mpirun(fn: Callable[..., Any], size: int, *args: Any,
           timeout: Optional[float] = 300.0, **kwargs: Any) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` rank threads.

    Returns the per-rank return values.  The first rank to raise aborts
    the communicator, so the ranks blocked on it fail fast instead of
    waiting out ``timeout``; its error is re-raised once every rank has
    finished (or the timeout lapses, for a rank stuck outside a
    receive).
    """
    if size <= 0:
        raise MPIError("size must be positive")
    backend = _Backend(size)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def run_rank(rank: int) -> None:
        comm = Communicator(backend, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append((rank, exc))
            backend.abort(rank, exc)

    threads = [
        threading.Thread(target=run_rank, args=(rank,), name=f"mpi-rank-{rank}",
                         daemon=True)
        for rank in range(size)
    ]
    for thread in threads:
        thread.start()
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        thread.join(remaining)
        if thread.is_alive():
            raise MPIError(
                f"mpirun timed out after {timeout}s (rank deadlock?)"
            )
    if errors:
        # Report the error that started the abort, not one it caused.
        # The origin's rank may belong to a split communicator, so the
        # world rank is looked up by the exception itself.
        origin = backend.abort_origin[1] if backend.abort_origin else None
        rank, exc = next(((r, e) for r, e in errors if e is origin),
                         min(errors, key=lambda e: e[0]))
        raise MPIError(f"rank {rank} failed: {exc!r}") from exc
    return results
