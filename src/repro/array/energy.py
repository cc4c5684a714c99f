"""Access energies and total array energy (paper Table 3 energy rows and
Eqs. (3)-(5)).

Assist-rail energies (CVDD, CVSS, and the overdriven WL during writes)
are multiplied by the DC-DC inefficiency factor, as in the paper's
Section 5 ("energy consumptions of assist circuits are multiplied by a
scaling factor to account for inefficiency of DC-DC converters").

The optional ``count_all_columns`` extension books the bitline and
precharge energy for every column touched by a WL assertion (all n_c of
them) and the sense/write energy for all W accessed columns — the
paper's Table 3 counts one worst-case column, which this reproduces by
default.
"""

from __future__ import annotations

import numpy as np


def _col_driver_energy(char, org):
    """The column-driver share: the first-three-stage energy where a
    column mux exists, exactly 0.0 where it does not (Table 3's case
    split, elementwise for broadcast organizations)."""
    if org.is_broadcast:
        return np.where(org.has_column_mux,
                        char.driver.first_three_energy, 0.0)
    return char.driver.first_three_energy if org.has_column_mux else 0.0


def read_energy(char, org, config, components):
    """``E_sw,rd`` of Table 3 [J].

    The Table-3 terms are summed grouped by broadcast rank — the
    organization-only terms, the fin-grid terms, and the V_SSC-rank
    assist-rail term each combine at their own (small) shape before the
    full-rank bitline term joins, so a broadcast search pays only two
    additions at the full ``(S, P, W)`` shape instead of eight.  The
    search and its reference share this summation, so they stay
    bit-identical to each other.
    """
    assist = config.assist_energy_factor
    if config.count_all_columns:
        # Physical counts: ECC check columns discharge/sense like any
        # other column (== the logical counts without a code).
        bl_mult, sense_mult = org.n_c_phys, org.word_bits_phys
    else:
        bl_mult, sense_mult = 1.0, 1.0
    org_terms = (
        char.decoder.energy(org.row_address_bits)
        + char.driver.first_three_energy
        + components.energy("WL_rd")
        + char.decoder.energy(org.column_address_bits)
        + _col_driver_energy(char, org)
        + sense_mult * char.sense.energy
        + assist * components.energy("CVDD")
    )
    grid_terms = (
        components.energy("COL")
        + bl_mult * components.energy("PRE_rd")
    )
    rail_terms = assist * components.energy("CVSS")
    return (
        org_terms + grid_terms + rail_terms
        + bl_mult * components.energy("BL_rd")
    )


def write_energy(char, org, config, components, v_wl, v_bl=0.0):
    """``E_sw,wr`` of Table 3 [J].

    Under the negative-BL assist (``v_bl < 0``, extension) the bitline
    write energy is drawn partly from the negative rail, so the DC-DC
    inefficiency factor applies to it, and the cell write energy comes
    from the negative-BL characterization.
    """
    assist = config.assist_energy_factor
    vdd = char.vdd
    if config.count_all_columns:
        word_mult = org.word_bits_phys
        # Half-selected columns (WL on, no write) see a read-like
        # disturb discharge and need the full-swing precharge after.
        pre_mult = org.n_c_phys
    else:
        word_mult, pre_mult = 1.0, 1.0
    wl_assist = assist if v_wl > vdd else 1.0
    bl_assist = assist if v_bl < 0.0 else 1.0
    if v_bl < 0.0:
        e_cell_write = char.e_write_negbl(v_bl)
    else:
        e_cell_write = char.e_write_sram(v_wl)
    total = (
        char.decoder.energy(org.row_address_bits)
        + char.driver.first_three_energy
        + wl_assist * components.energy("WL_wr")
        + char.decoder.energy(org.column_address_bits)
        + _col_driver_energy(char, org)
        + components.energy("COL")
        + word_mult * bl_assist * components.energy("BL_wr")
        + word_mult * e_cell_write
        + pre_mult * components.energy("PRE_wr")
    )
    return total


def total_energy(config, e_sw_rd, e_sw_wr, capacity_bits, p_leak_sram,
                 d_array):
    """Eqs. (3)-(5): blend switching energy, add leakage over the access.

    Returns ``(e_sw, e_leak, e_total)``.
    """
    e_sw = config.beta * e_sw_rd + (1.0 - config.beta) * e_sw_wr
    e_leak = capacity_bits * p_leak_sram * d_array
    e_total = config.alpha * e_sw + e_leak
    return e_sw, e_leak, e_total
