"""Struct-of-arrays columnar layout for registered product classes.

HEP selection is embarrassingly columnar: a Cut touches two or three
fields of every slice, yet the row-wise archive ships and decodes whole
objects.  This module provides the transposed view:

- :func:`column_plan` derives a per-class column schema from the same
  machinery the compiled serializers use (the dataclass field list or
  the ``serialize`` sentinel probe), so exactly the classes that
  compile also columnarize;
- :func:`to_columns` transposes a homogeneous object list into numpy
  arrays (``float``/``int``/``bool`` fields) or plain value lists
  (everything else), with the same strict ``type(v) is`` guards the
  compiled encoders use -- a value that fails its guard degrades that
  column to an archive-encoded list, never to a lossy cast;
- :class:`ColumnarBatch` is a registered product wrapping one such
  table, round-trippable byte-for-byte against the row-wise archive
  (``dumps(batch.to_objects()) == dumps(original_list)``);
- the ``*_block`` helpers translate tables to and from the wire blocks
  of the ``yokan.scan_columns`` projection RPC.

Classes that are unregistered, version-dependent, or fail the probe
have no plan; their values travel row-wise ("raw") and every consumer
falls back to per-object decoding, so the columnar path can narrow the
data but never change it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptionError, SerializationError
from repro.serial import archive as _A
from repro.serial.compiled import _plan_dataclass, _probe_serialize_class

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: numpy dtype per specialized column kind (little-endian on the wire).
COLUMN_DTYPES = {float: "<f8", int: "<i8", bool: "|b1"}
#: dtype marker for a column shipped as an archive-encoded value list.
OBJECT_DTYPE = "O"

#: class -> (plan, maker) | None, computed once per class.
_PLANS: Dict[type, Optional[tuple]] = {}


def _compute_plan(cls: type) -> Optional[tuple]:
    if cls not in _A._BY_TYPE:
        # The wire format names the class; unregistered classes could
        # not be reconstructed on the other side anyway.
        return None
    if _A._serialize_takes_version(cls):
        return None  # field layout may be version-dependent
    if getattr(cls, "__setattr__", None) is not object.__setattr__:
        return None
    if callable(getattr(cls, "serialize", None)):
        plan = _probe_serialize_class(cls)
        maker: Any = cls
    elif dataclasses.is_dataclass(cls):
        planned = _plan_dataclass(cls)
        if planned is None:
            return None
        plan, maker = planned
    else:
        return None
    if not plan:
        return None
    return list(plan), maker


def column_plan(cls: type) -> Optional[tuple]:
    """``([(field, kind), ...], maker)`` for ``cls``, or ``None``.

    ``kind`` is one of ``float``/``int``/``bool``/``str``/``bytes`` or
    ``None`` (generic).  The result is cached per class.
    """
    try:
        return _PLANS[cls]
    except KeyError:
        planned = _compute_plan(cls)
        _PLANS[cls] = planned
        return planned


def column_fields(cls: type) -> Optional[List[str]]:
    """The ordered column names of ``cls``, or ``None`` if unplanned."""
    planned = column_plan(cls)
    if planned is None:
        return None
    return [name for name, _kind in planned[0]]


def _column_for(objs: Sequence[Any], name: str, kind) -> Any:
    """One column: a typed numpy array, or a value list on guard failure."""
    vals = [getattr(o, name) for o in objs]
    if kind is float:
        for v in vals:
            if type(v) is not float:
                return vals
        return np.array(vals, dtype="<f8")
    if kind is int:
        for v in vals:
            if type(v) is not int or not _I64_MIN <= v <= _I64_MAX:
                return vals
        return np.array(vals, dtype="<i8")
    if kind is bool:
        for v in vals:
            if type(v) is not bool:
                return vals
        return np.array(vals, dtype="|b1")
    return vals


def to_columns(objs: Sequence[Any]) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Transpose a homogeneous list of planned products into columns.

    Returns ``(row_count, {field: array_or_list})`` covering *every*
    field of the class, or ``None`` when the list is empty,
    heterogeneous, or its class has no column plan (callers then keep
    the row-wise value).
    """
    if not objs:
        return None
    cls = type(objs[0])
    for o in objs:
        if type(o) is not cls:
            return None
    planned = column_plan(cls)
    if planned is None:
        return None
    plan, _maker = planned
    return len(objs), {name: _column_for(objs, name, kind)
                       for name, kind in plan}


def value_to_table(value) -> Optional[Tuple[str, int, Dict[str, Any]]]:
    """Decode a stored product value into ``(type_name, count, columns)``.

    ``None`` when the value is not a non-empty homogeneous list of
    planned products (including when it fails to decode at all -- the
    row-wise bytes then travel unchanged and the *client* raises the
    decode error, exactly as on the per-event path).
    """
    try:
        objs = _A.loads(value)
    except Exception:
        return None
    if type(objs) is not list:
        return None
    table = to_columns(objs)
    if table is None:
        return None
    count, columns = table
    return _A._BY_TYPE[type(objs[0])], count, columns


# -- wire blocks for the scan_columns projection ------------------------------


def pack_field_column(tables: Sequence[Dict[str, Any]],
                      name: str) -> Tuple[str, bytes]:
    """Concatenate one field across per-container tables into a wire block.

    Returns ``(dtype_str, payload)``: a raw little-endian array when
    every piece is a numpy column of the same dtype, otherwise an
    archive-encoded flat value list under :data:`OBJECT_DTYPE`.
    """
    parts = [t[name] for t in tables]
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    if len(arrays) == len(parts):
        dtypes = {a.dtype.str for a in arrays}
        if len(dtypes) <= 1:
            if not arrays:
                return COLUMN_DTYPES[float], b""
            merged = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            return merged.dtype.str, merged.tobytes()
    flat: List[Any] = []
    for p in parts:
        flat.extend(p.tolist() if isinstance(p, np.ndarray) else p)
    return OBJECT_DTYPE, _A.dumps(flat)


def column_from_block(dtype_str: str, payload, total_rows: int):
    """Decode one wire block back into a column of ``total_rows`` values.

    Numeric blocks come back as zero-copy ``np.frombuffer`` views over
    ``payload``; :data:`OBJECT_DTYPE` blocks as plain lists.
    """
    if dtype_str == OBJECT_DTYPE:
        vals = _A.loads(bytes(payload))
        if type(vals) is not list or len(vals) != total_rows:
            raise CorruptionError(
                f"column block decoded to {type(vals).__name__} of "
                f"{len(vals) if type(vals) is list else '?'} values, "
                f"expected a {total_rows}-row list")
        return vals
    try:
        dtype = np.dtype(dtype_str)
    except TypeError:
        raise CorruptionError(f"column block has bad dtype {dtype_str!r}")
    arr = np.frombuffer(payload, dtype=dtype) if len(payload) else \
        np.empty(0, dtype=dtype)
    if arr.shape[0] != total_rows:
        raise CorruptionError(
            f"column block has {arr.shape[0]} rows, expected {total_rows}")
    return arr


# -- the registered SoA product ----------------------------------------------


class ColumnarBatch:
    """A homogeneous product list stored struct-of-arrays.

    ``columns`` maps every field of the element class to either a numpy
    array or a value list; ``to_objects`` reconstructs the exact
    row-wise list (``dumps`` of the result is byte-identical to
    ``dumps`` of the list the batch was built from).
    """

    def __init__(self, tname: str = "", count: int = 0,
                 columns: Optional[Dict[str, Any]] = None):
        self.tname = tname
        self.count = count
        self.columns = {} if columns is None else columns

    def serialize(self, ar) -> None:
        self.tname = ar.io(self.tname)
        self.count = ar.io(self.count)
        self.columns = ar.io(self.columns)

    @classmethod
    def from_objects(cls, objs: Sequence[Any]) -> "ColumnarBatch":
        """Transpose ``objs``; raises for lists no plan can represent."""
        table = to_columns(objs)
        if table is None:
            raise SerializationError(
                "ColumnarBatch.from_objects needs a non-empty homogeneous "
                "list of registered products with a column plan")
        count, columns = table
        return cls(_A._BY_TYPE[type(objs[0])], count, columns)

    def to_objects(self) -> List[Any]:
        """Reconstruct the row-wise product list, byte-exactly."""
        cls = _A.registered_type(self.tname)
        planned = column_plan(cls)
        if planned is None:
            raise SerializationError(
                f"type {self.tname!r} has no column plan")
        plan, maker = planned
        lists = []
        for name, _kind in plan:
            try:
                col = self.columns[name]
            except KeyError:
                raise SerializationError(
                    f"ColumnarBatch for {self.tname!r} is missing "
                    f"column {name!r}")
            vals = col.tolist() if isinstance(col, np.ndarray) else col
            if len(vals) != self.count:
                raise SerializationError(
                    f"column {name!r} has {len(vals)} rows, "
                    f"expected {self.count}")
            lists.append((name, vals))
        out = []
        for i in range(self.count):
            obj = maker()
            for name, vals in lists:
                setattr(obj, name, vals[i])
            out.append(obj)
        return out

    def project(self, fields: Sequence[str]) -> Dict[str, Any]:
        """The requested columns only (KeyError for unknown fields)."""
        return {name: self.columns[name] for name in fields}

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"ColumnarBatch({self.tname!r}, count={self.count}, "
                f"fields={list(self.columns)})")


_A.register_type(ColumnarBatch, "serial.ColumnarBatch")


__all__ = [
    "COLUMN_DTYPES",
    "OBJECT_DTYPE",
    "ColumnarBatch",
    "column_fields",
    "column_plan",
    "column_from_block",
    "pack_field_column",
    "to_columns",
    "value_to_table",
]
