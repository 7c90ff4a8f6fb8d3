"""Columnar results store: NumPy struct-array chunks in memory.

A population study produces one capture record per (device, scene,
repeat, step); a Python object per record would dominate memory and GC
time long before the capture pipeline does. :class:`ColumnarStore`
keeps records as NumPy structured arrays end to end:

* **Append** is batch-only: callers hand whole column vectors (or a
  ready struct array); no per-record objects are ever created or held.
* **Memory** is a list of struct-array chunks — ``rows * itemsize``
  bytes, nothing else. The CLI's default drift study (1000 devices x
  40 photos x 6 steps) is 240 000 rows, 6.7 MB at 28 bytes a row.
* **Aggregation** reads one table: :meth:`ColumnarStore.table`
  concatenates the chunks, and :func:`repro.fleet.stats.aggregate_tables`
  counts it in one pass. :meth:`ColumnarStore.iter_tables` yields the
  chunks themselves, one per append, in append order.

Object-dtype fields are rejected at construction: the store's whole
point is that a record is a fixed-width row, not a boxed Python value.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .. import obs

__all__ = ["ColumnarStore"]


class ColumnarStore:
    """Append-only in-memory store of struct-array record chunks.

    ``dtype`` is the structured record dtype; object fields are
    rejected.
    """

    def __init__(self, dtype: np.dtype) -> None:
        dtype = np.dtype(dtype)
        if dtype.names is None:
            raise ValueError("ColumnarStore needs a structured dtype with named fields")
        if dtype.hasobject:
            raise ValueError(
                "object-dtype fields defeat the columnar layout; use fixed-width "
                "numeric or unicode fields"
            )
        self.dtype = dtype
        self._chunks: List[np.ndarray] = []
        self._rows = 0

    # -- append --------------------------------------------------------
    def append_table(self, table: np.ndarray) -> None:
        """Append a struct array of records (batch append, zero boxing)."""
        table = np.asarray(table)
        if table.dtype != self.dtype:
            raise ValueError(
                f"table dtype {table.dtype} does not match store dtype {self.dtype}"
            )
        if table.ndim != 1:
            raise ValueError("record tables must be one-dimensional")
        if not table.shape[0]:
            return
        self._chunks.append(np.ascontiguousarray(table))
        self._rows += int(table.shape[0])
        obs.count("fleet.store.rows_appended", int(table.shape[0]))

    def append_columns(self, **columns: np.ndarray) -> None:
        """Append records given as aligned column vectors.

        ``store.append_columns(device=ids, predicted=preds, ...)`` builds
        the struct-array chunk vectorized — the convenient front door for
        study code that naturally produces per-column arrays.
        """
        names = set(columns)
        expected = set(self.dtype.names)
        if names != expected:
            raise ValueError(
                f"column mismatch: got {sorted(names)}, need {sorted(expected)}"
            )
        arrays = {
            name: np.asarray(values) for name, values in columns.items()
        }
        lengths = {name: arr.shape[0] for name, arr in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        rows = next(iter(lengths.values()))
        table = np.empty(rows, dtype=self.dtype)
        for name in self.dtype.names:
            table[name] = arrays[name]
        self.append_table(table)

    # -- read ----------------------------------------------------------
    @property
    def rows(self) -> int:
        """Total record count."""
        return self._rows

    def __len__(self) -> int:
        return self._rows

    def iter_tables(self) -> Iterator[np.ndarray]:
        """Yield the record chunks, one per non-empty append, in order."""
        return iter(self._chunks)

    def table(self) -> np.ndarray:
        """Materialize all records as one struct array."""
        if not self._chunks:
            raise ValueError("no rows to concatenate")
        return np.concatenate(self._chunks)
