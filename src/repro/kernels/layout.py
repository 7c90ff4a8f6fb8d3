"""MCU scan-order geometry shared by the JPEG entropy kernels and codec.

JPEG interleaves components inside each MCU: for every MCU (row-major),
each component contributes ``h * v`` blocks (``dy`` outer, ``dx`` inner).
:func:`scan_layout` flattens that nesting into two parallel arrays so the
entropy kernels can treat the scan as one linear sequence of "units"
(one unit = one 8x8 block with its component's tables and DC chain).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["scan_layout"]


def scan_layout(
    mcu_rows: int,
    mcu_cols: int,
    samplings: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit order of an interleaved scan.

    Parameters
    ----------
    samplings:
        Per-component ``(h, v)`` sampling factors, in scan component
        order. Component ``c``'s plane is assumed to hold
        ``mcu_cols * h`` blocks per row.

    Returns
    -------
    ``(comp_of_unit, block_of_unit)`` int64 arrays of length
    ``mcu_rows * mcu_cols * sum(h * v)``: the component index of each
    scan unit and the row of that component's ``(n_blocks, 64)``
    coefficient matrix it reads/writes.
    """
    n_mcus = mcu_rows * mcu_cols
    per_mcu_comp = np.concatenate(
        [np.full(h * v, c, dtype=np.int64) for c, (h, v) in enumerate(samplings)]
    )
    mr = np.arange(mcu_rows, dtype=np.int64).reshape(-1, 1, 1, 1)
    mc = np.arange(mcu_cols, dtype=np.int64).reshape(1, -1, 1, 1)
    per_comp_idx = []
    for h, v in samplings:
        blocks_per_row = mcu_cols * h
        dy = np.arange(v, dtype=np.int64).reshape(1, 1, -1, 1)
        dx = np.arange(h, dtype=np.int64).reshape(1, 1, 1, -1)
        idx = (mr * v + dy) * blocks_per_row + (mc * h + dx)
        per_comp_idx.append(idx.reshape(n_mcus, h * v))
    block_of_unit = np.concatenate(per_comp_idx, axis=1).reshape(-1)
    comp_of_unit = np.tile(per_mcu_comp, n_mcus)
    return comp_of_unit, block_of_unit
