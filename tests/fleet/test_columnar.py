"""Columnar store tests: appends, chunk order, and the no-boxing claim.

The acceptance-critical test here is
``test_million_records_without_python_objects``: the store must hold
10^6 records as struct-array chunks (``rows * itemsize`` bytes, object
dtype rejected), never as per-record Python objects.
"""

import numpy as np
import pytest

from repro.fleet import ColumnarStore
from repro.fleet.stats import RECORD_DTYPE

MIXED_DTYPE = np.dtype(
    [("idx", "<i8"), ("score", "<f4"), ("count", "<u2"), ("wide", "<f8")]
)


def _mixed_table(n, seed=0):
    rng = np.random.default_rng(seed)
    table = np.empty(n, dtype=MIXED_DTYPE)
    table["idx"] = rng.integers(-(2**40), 2**40, n)
    table["score"] = rng.normal(size=n).astype(np.float32)
    table["count"] = rng.integers(0, 2**16, n)
    table["wide"] = rng.normal(size=n)
    return table


class TestStoreAppend:
    def test_append_columns_matches_append_table(self):
        table = _mixed_table(100)
        by_table = ColumnarStore(MIXED_DTYPE)
        by_table.append_table(table)
        by_columns = ColumnarStore(MIXED_DTYPE)
        by_columns.append_columns(
            **{name: table[name] for name in table.dtype.names}
        )
        assert np.array_equal(by_table.table(), by_columns.table())

    def test_wrong_dtype_rejected(self):
        store = ColumnarStore(MIXED_DTYPE)
        with pytest.raises(ValueError, match="does not match"):
            store.append_table(np.zeros(3, dtype=[("idx", "<i8")]))

    def test_missing_column_rejected(self):
        store = ColumnarStore(MIXED_DTYPE)
        with pytest.raises(ValueError, match="column mismatch"):
            store.append_columns(idx=np.arange(3))

    def test_ragged_columns_rejected(self):
        store = ColumnarStore(MIXED_DTYPE)
        with pytest.raises(ValueError, match="ragged"):
            store.append_columns(
                idx=np.arange(3),
                score=np.zeros(2, dtype=np.float32),
                count=np.zeros(3, dtype=np.uint16),
                wide=np.zeros(3),
            )

    def test_empty_append_is_noop(self):
        store = ColumnarStore(MIXED_DTYPE)
        store.append_table(_mixed_table(0))
        assert store.rows == 0 and list(store.iter_tables()) == []

    def test_object_dtype_store_rejected(self):
        with pytest.raises(ValueError, match="object-dtype"):
            ColumnarStore(np.dtype([("x", "O")]))

    def test_iter_tables_yields_one_chunk_per_append_in_order(self):
        store = ColumnarStore(MIXED_DTYPE)
        sizes = (3, 1, 7)
        offset = 0
        for size in sizes:
            batch = _mixed_table(size, seed=offset)
            batch["idx"] = np.arange(offset, offset + size)
            offset += size
            store.append_table(batch)
        store.append_table(_mixed_table(0))
        chunks = list(store.iter_tables())
        assert [c.shape[0] for c in chunks] == list(sizes)
        assert len(store) == store.rows == sum(sizes)
        assert np.array_equal(store.table()["idx"], np.arange(sum(sizes)))

    def test_table_of_empty_store_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            ColumnarStore(MIXED_DTYPE).table()


class TestMillionRecords:
    def test_million_records_without_python_objects(self):
        """Acceptance: 10^6 records live as struct arrays, not objects."""
        store = ColumnarStore(RECORD_DTYPE)
        batch_rows = 100_000
        for batch_index in range(10):
            devices = np.arange(batch_rows, dtype=np.uint32) % 1000
            store.append_columns(
                device=devices,
                scene=np.full(batch_rows, batch_index % 4, dtype=np.uint32),
                repeat=np.zeros(batch_rows, dtype=np.uint16),
                step=np.full(batch_rows, batch_index, dtype=np.uint16),
                true_label=(devices % 8).astype(np.int16),
                predicted=((devices + batch_index) % 8).astype(np.int16),
                confidence=(devices % 101).astype(np.float32) / 100.0,
                encoded_size=(devices * 13 + 1000).astype(np.int64),
            )
        assert store.rows == 1_000_000
        # Every chunk is a fixed-width struct array; nothing is boxed.
        chunks = list(store.iter_tables())
        assert len(chunks) == 10
        assert all(not chunk.dtype.hasobject for chunk in chunks)
        assert all(chunk.dtype == RECORD_DTYPE for chunk in chunks)
        assert sum(chunk.nbytes for chunk in chunks) == (
            1_000_000 * RECORD_DTYPE.itemsize
        )
        assert max(int(chunk["device"].max()) for chunk in chunks) == 999
        assert max(float(chunk["confidence"].max()) for chunk in chunks) <= 1.0
