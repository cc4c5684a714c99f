"""Read / write access delays (paper Table 3, delay rows).

The equations target the worst-case cell (top-right corner): the read
critical path races the row path (decode, drive, WL, BL discharge)
against the column path (column decode, drive, COL select), then adds
the sense and precharge times; the write path races WL assertion against
data arrival on the BL, then adds the cell flip and precharge times.

Without a column mux (n_c <= W) every column term is zero.
"""

from __future__ import annotations

import numpy as np


def read_delay(char, org, components, parts=None):
    """``D_rd`` of Table 3 [s].  ``parts``, when a dict is supplied, is
    filled with the named sub-terms for reporting (Fig. 7(d) needs the
    BL-delay share of the total)."""
    row_path = (
        char.decoder.delay(org.row_address_bits)
        + char.driver.first_three_delay
        + components.delay("WL_rd")
        + components.delay("BL_rd")
    )
    if org.is_broadcast:
        # Both case expressions with the scalar arithmetic, selected by
        # the mux mask: the no-mux column path must be *exactly* 0.0
        # (the mux expression at zero address bits still carries the
        # driver's first-three-stage delay).
        col_path = np.where(
            org.has_column_mux,
            char.decoder.delay(org.column_address_bits)
            + char.driver.first_three_delay
            + components.delay("COL"),
            0.0,
        )
    elif org.has_column_mux:
        col_path = (
            char.decoder.delay(org.column_address_bits)
            + char.driver.first_three_delay
            + components.delay("COL")
        )
    else:
        col_path = 0.0
    tail = char.sense.delay + components.delay("PRE_rd")
    total = np.maximum(row_path, col_path) + tail
    if parts is not None:
        parts.update({
            "row_path": row_path,
            "col_path": col_path,
            "bl": components.delay("BL_rd"),
            "sense": char.sense.delay,
            "precharge": components.delay("PRE_rd"),
        })
    return total


def write_delay(char, org, components, v_wl, parts=None, v_bl=0.0):
    """``D_wr`` of Table 3 [s].

    With the negative-BL assist active (``v_bl < 0``) the cell-flip
    delay comes from the negative-BL characterization (wordline at
    nominal Vdd) instead of the WLOD LUT.
    """
    row_path = (
        char.decoder.delay(org.row_address_bits)
        + char.driver.first_three_delay
        + components.delay("WL_wr")
    )
    if org.is_broadcast:
        col_path = np.where(
            org.has_column_mux,
            char.decoder.delay(org.column_address_bits)
            + char.driver.first_three_delay
            + components.delay("COL")
            + components.delay("BL_wr"),
            components.delay("BL_wr"),
        )
    elif org.has_column_mux:
        col_path = (
            char.decoder.delay(org.column_address_bits)
            + char.driver.first_three_delay
            + components.delay("COL")
            + components.delay("BL_wr")
        )
    else:
        # The write buffer still has to drive the bitline; only the
        # column-decode terms vanish.
        col_path = components.delay("BL_wr")
    if v_bl < 0.0:
        cell_write = char.d_write_negbl(v_bl)
    else:
        cell_write = char.d_write_sram(v_wl)
    tail = cell_write + components.delay("PRE_wr")
    total = np.maximum(row_path, col_path) + tail
    if parts is not None:
        parts.update({
            "row_path": row_path,
            "col_path": col_path,
            "cell_write": cell_write,
            "precharge": components.delay("PRE_wr"),
        })
    return total
