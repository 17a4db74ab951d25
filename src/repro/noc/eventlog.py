"""Columnar event logs: the batch engine's per-lane injection/ejection logs.

A flit event is a handful of integers, so :class:`EventLog` keeps one
lane's events as int64 columns — one row per record field, one column
per event — in a buffer that grows as chunks append to it.  That costs
5 (injections) or 4 (ejections) words per event, against a Python
record object plus its boxed fields.

The log still reads like the record list the object-model engines keep:
``len()`` builds nothing, indexing, slicing and iteration build
:class:`~repro.noc.network.InjectionRecord` /
:class:`~repro.noc.network.EjectionRecord` objects on demand, and a log
compares equal to the record list holding the same events.  Only the
engine appends to it, column blocks at a time.  Consumers
that only need the integers (the latency tracker, the pipeline's
analyze stage) read them through :func:`event_rows`, which serves
columns and record lists alike.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Iterator, Tuple

import numpy as np

__all__ = ["EventLog", "event_rows"]

#: events turned into Python objects at a time when a log is iterated,
#: so a long log never materialises all at once.
_BLOCK = 4096

Row = Tuple[int, int, int, int]


class EventLog:
    """One lane's log of ``record`` events, stored column-wise.

    ``record`` is :class:`~repro.noc.network.InjectionRecord` or
    :class:`~repro.noc.network.EjectionRecord`; the columns follow its
    field order, so the first four are always cycle, router, VC and flit
    word.
    """

    __slots__ = ("record", "_data", "_n")

    def __init__(self, record) -> None:
        self.record = record
        self._data = np.empty((len(fields(record)), 0), dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"EventLog({self.record.__name__}, {self._n} events)"

    # -- columns ------------------------------------------------------------
    def columns(self, start: int = 0, stop=None) -> np.ndarray:
        """Events ``[start, stop)`` as a ``[fields, n]`` int64 view of
        the log's buffer (logged events never change)."""
        stop = self._n if stop is None else min(stop, self._n)
        return self._data[:, start:stop]

    def append_columns(self, block: np.ndarray) -> None:
        """Append ``block`` (``[fields, k]``, one event per column)."""
        k = block.shape[1]
        if not k:
            return
        n = self._n
        need = n + k
        if need > self._data.shape[1]:
            # Grow by half: amortised O(1) appends with at most a third
            # of the buffer unused.
            grown = np.empty((len(block), max(need, n + n // 2 + 64)), dtype=np.int64)
            grown[:, :n] = self._data[:, :n]
            self._data = grown
        self._data[:, n:need] = block
        self._n = need

    def _tuples(self, start: int, width: int) -> Iterator[tuple]:
        """The first ``width`` fields of every event from ``start``."""
        for lo in range(start, self._n, _BLOCK):
            yield from zip(*self._data[:width, lo : min(lo + _BLOCK, self._n)].tolist())

    def rows(self, start: int = 0) -> Iterator[Row]:
        """``(cycle, router, vc, flit_word)`` of every event from ``start``."""
        return self._tuples(start, 4)

    def slice(self, start: int, stop: int) -> "EventLog":
        """A new log holding a copy of events ``[start, stop)``."""
        out = EventLog(self.record)
        out.append_columns(self.columns(start, stop))
        return out

    # -- the record-list surface -------------------------------------------
    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            return [self.record(*row) for row in zip(*self._data[:, start:stop:step].tolist())]
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("event log index out of range")
        return self.record(*self._data[:, index].tolist())

    def __iter__(self):
        record = self.record
        return (record(*row) for row in self._tuples(0, len(self._data)))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventLog):
            return (
                self.record is other.record
                and self._n == other._n
                and np.array_equal(self.columns(), other.columns())
            )
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable, like the list it stands in for


def event_rows(log, start: int = 0) -> Iterable[Row]:
    """``(cycle, router, vc, flit_word)`` of ``log``'s events from ``start``.

    Reads the columns of an :class:`EventLog` directly; a record
    sequence (the object-model engines' logs, or a retrieved slice) goes
    through its attributes.
    """
    if isinstance(log, EventLog):
        return log.rows(start)
    return ((r.cycle, r.router, r.vc, r.flit_word) for r in log[start:])
