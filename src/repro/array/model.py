"""The analytical SRAM array model: one evaluation per design point.

Ties Table 1 (capacitances), Table 2 (component delays/energies),
Table 3 (access delays/energies), and Eqs. (2)-(5) (array delay, energy,
and their product) together over one :class:`ArrayCharacterization`.

``n_pre`` / ``n_wr`` may be numpy arrays: a single call then evaluates a
whole fin-count grid.  ``v_ssc`` may also be an array (conventionally
shaped ``(S, 1, 1)`` so it broadcasts as a leading axis over the
``(N_pre, N_wr)`` grid): the exhaustive optimizer evaluates one row
count's whole feasible ``V_SSC x N_pre x N_wr`` space in a single call,
which is how it sweeps its 250k-point design space in well under the
paper's two minutes.  ``n_r`` / ``n_c`` may be integer arrays too (the
admissible bounds of :meth:`SRAMArrayModel.evaluate_bounds` cover every
organization at once).  Whatever the rank, every elementwise case split
is evaluated with the scalar path's exact arithmetic and selected per
element, so results stay bit-identical to the slice-by-slice reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .components import _shared_precursors, compute_components
from .config import ArrayConfig
from .energy import read_energy, total_energy, write_energy
from .organization import ArrayOrganization, BroadcastOrganization
from .timing import read_delay, write_delay
from ..yields.ecc import ecc_overhead


@dataclass(frozen=True)
class DesignPoint:
    """One candidate array design (the optimizer's decision vector)."""

    n_r: int
    n_c: int
    n_pre: object  # int or numpy array
    n_wr: object   # int or numpy array
    v_ddc: float
    v_ssc: object  # float or numpy array (broadcast V_SSC axis)
    v_wl: float
    #: Write-low bitline level (0 = paper's adopted WLOD-only scheme;
    #: negative under the negative-BL write-assist extension).
    v_bl: float = 0.0

    def describe(self):
        if np.ndim(self.n_r) > 0 or np.ndim(self.n_c) > 0:
            return "<broadcast design over %d organizations>" \
                % max(np.size(self.n_r), 1)
        if np.ndim(self.v_ssc) == 0:
            v_ssc_text = "%.0fmV" % (self.v_ssc * 1e3)
        else:
            v_ssc_text = "<%d-level axis>" % np.size(self.v_ssc)
        text = (
            "%dx%d N_pre=%s N_wr=%s V_DDC=%.0fmV V_SSC=%s V_WL=%.0fmV"
            % (self.n_r, self.n_c, self.n_pre, self.n_wr,
               self.v_ddc * 1e3, v_ssc_text, self.v_wl * 1e3)
        )
        if self.v_bl < 0:
            text += " V_BL=%.0fmV" % (self.v_bl * 1e3)
        return text


@dataclass
class ArrayMetrics:
    """Evaluated delay/energy/EDP of one design point (or fin grid)."""

    design: DesignPoint
    d_rd: object
    d_wr: object
    d_array: object
    e_sw_rd: object
    e_sw_wr: object
    e_sw: object
    e_leak: object
    e_total: object
    edp: object
    components: object = None
    read_parts: dict = field(default_factory=dict)
    write_parts: dict = field(default_factory=dict)
    #: Slack [s] of the paper's rail-arrival requirement: the assisted
    #: CVDD/CVSS rails must settle before the WL reaches 50% of Vdd
    #: (Section 4; the 20-fin rail drivers are sized for n_c = 1024 to
    #: guarantee this).  Positive = requirement met.
    rail_arrival_slack: object = None

    #: Cell-matrix footprint (width, height) [m] and its aspect ratio.
    footprint: tuple = None
    aspect_ratio: float = None

    @property
    def rails_timely(self):
        """True when the rail-arrival requirement holds."""
        return self.rail_arrival_slack >= 0

    @property
    def area(self):
        """Cell-matrix area [m^2] (periphery excluded)."""
        return self.footprint[0] * self.footprint[1]

    @property
    def bl_read_delay(self):
        """The BL discharge share of the read path (Fig. 7(d))."""
        return self.read_parts.get("bl")

    def breakdown(self):
        """Per-component delay/energy rows for reporting."""
        rows = []
        for name in sorted(self.components.delays):
            rows.append({
                "component": name,
                "delay_ps": float(np.mean(self.components.delays[name]))
                * 1e12,
                "energy_fJ": float(np.mean(self.components.energies[name]))
                * 1e15,
            })
        return rows

    @property
    def leakage_fraction(self):
        """Leakage share of the total energy."""
        return self.e_leak / self.e_total


class SRAMArrayModel:
    """Evaluate array metrics for one characterized cell flavor."""

    def __init__(self, characterization, config=None):
        self.char = characterization
        self.config = config or ArrayConfig()
        # ECC is fixed per model: resolve the code once and characterize
        # its organization-independent encode/correct terms from the
        # decoder's unit gates.  ``check_bits == 0`` keeps every
        # evaluation bit-identical to the no-ECC model.
        self._ecc_code = self.config.ecc_code()
        self._ecc = ecc_overhead(self._ecc_code, characterization.decoder)

    @property
    def ecc_code(self):
        """The resolved :class:`~repro.yields.ecc.ECCCode`."""
        return self._ecc_code

    @property
    def ecc_terms(self):
        """The :class:`~repro.yields.ecc.ECCOverhead` added per access."""
        return self._ecc

    def organization(self, capacity_bits, n_r):
        """Validated organization for a capacity/row-count pair."""
        org = ArrayOrganization.from_capacity(
            capacity_bits, n_r, self.config.word_bits
        )
        if self._ecc_code.check_bits:
            org = ArrayOrganization(
                n_r=org.n_r, n_c=org.n_c, word_bits=org.word_bits,
                check_bits=self._ecc_code.check_bits,
            )
        return org

    def evaluate(self, capacity_bits, design, *, shared=None):
        """Full Table-1..3 + Eq.(2)-(5) evaluation of ``design``.

        ``design.n_pre`` / ``design.n_wr`` / ``design.v_ssc`` may be
        numpy arrays; every metric field then carries the broadcast
        shape (``(S, P, W)`` when a V_SSC axis rides along a fin grid).
        ``design.n_r`` / ``design.n_c`` may be integer arrays as well,
        with every Table-1/2/3 case split applied elementwise.  The rail
        voltages ``v_ddc`` / ``v_wl`` / ``v_bl`` are scalars.

        ``shared`` is a dict of the organization-independent Table-2
        precursors, filled by the first call that passes it and reused
        by later ones.  It is only valid across calls that differ in
        ``n_r`` / ``n_c`` alone: the optimizer's row sweep owns one per
        search.
        """
        org = self._organization_of(capacity_bits, design)
        return self._evaluate_core(capacity_bits, design, org,
                                   shared=shared)

    def evaluate_bounds(self, capacity_bits, design, n_pre_hi, n_wr_hi):
        """Admissible per-organization *lower bounds* over a fin range.

        Evaluates ``design`` — whose ``n_pre`` / ``n_wr`` must be the
        fin-range *minima* — with the fin-dependent drive currents
        (``i_pre``, ``i_bl_wr``; the only fin-dependent Table-2
        precursors) taken at the range *maxima* ``n_pre_hi`` /
        ``n_wr_hi``.  Every capacitance is nondecreasing and both
        currents increasing in the fin counts, so each component delay
        ``C dV / I`` and energy ``C V dV`` — and hence the max/sum
        compositions ``d_array``, ``e_total``, and their product
        ``edp`` — is a lower bound on its value at *any*
        ``(N_pre, N_wr)`` in the range (see ``docs/MODELING.md`` §6).

        The mixed-corner metrics are not a physical design point; only
        the ``d_array`` / ``e_total`` / ``edp`` fields are meaningful as
        bounds.
        """
        org = self._organization_of(capacity_bits, design)
        shared = _shared_precursors(
            self.char, self.config, n_pre_hi, n_wr_hi,
            design.v_ddc, design.v_ssc, design.v_wl, design.v_bl,
        )
        return self._evaluate_core(capacity_bits, design, org,
                                   shared=shared)

    def _organization_of(self, capacity_bits, design):
        """The (scalar or broadcast) organization of ``design``, checked
        against ``capacity_bits``."""
        if np.ndim(design.n_r) > 0 or np.ndim(design.n_c) > 0:
            org = BroadcastOrganization(
                n_r=design.n_r, n_c=design.n_c,
                word_bits=self.config.word_bits,
                check_bits=self._ecc_code.check_bits,
            )
            if np.any(org.capacity_bits != capacity_bits):
                raise ValueError(
                    "broadcast design does not match capacity %d bits"
                    % (capacity_bits,)
                )
            return org
        org = ArrayOrganization(
            n_r=design.n_r, n_c=design.n_c,
            word_bits=self.config.word_bits,
            check_bits=self._ecc_code.check_bits,
        )
        if org.capacity_bits != capacity_bits:
            raise ValueError(
                "design %dx%d does not match capacity %d bits"
                % (design.n_r, design.n_c, capacity_bits)
            )
        return org

    def _evaluate_core(self, capacity_bits, design, org, shared=None):
        components = compute_components(
            self.char, org, self.config,
            design.n_pre, design.n_wr,
            design.v_ddc, design.v_ssc, design.v_wl, design.v_bl,
            shared=shared,
        )
        read_parts, write_parts = {}, {}
        d_rd = read_delay(self.char, org, components, read_parts)
        d_wr = write_delay(self.char, org, components, design.v_wl,
                           write_parts, design.v_bl)
        leak_bits = capacity_bits
        if self._ecc_code.check_bits:
            # ECC: syndrome/correct logic joins the read path, the
            # encoder the write path, and the check columns leak like
            # any other cell.  The terms are organization-independent
            # constants composed through ``+``/``max`` — they apply
            # identically in the production evaluation and in
            # ``evaluate_bounds``, which is what keeps the search's
            # lower bounds admissible.  Inline: strictly
            # serial.  Pipelined: correction is its own stage, so the
            # cycle is the max over all stages.
            read_parts["ecc"] = self._ecc.correct_delay
            write_parts["ecc"] = self._ecc.encode_delay
            if not self.config.ecc_pipelined:
                d_rd = d_rd + self._ecc.correct_delay
                d_wr = d_wr + self._ecc.encode_delay
            leak_bits = org.n_r * org.n_c_phys
        d_array = np.maximum(d_rd, d_wr)
        if self._ecc_code.check_bits and self.config.ecc_pipelined:
            d_array = np.maximum(
                d_array,
                max(self._ecc.correct_delay, self._ecc.encode_delay),
            )
        e_sw_rd = read_energy(self.char, org, self.config, components)
        e_sw_wr = write_energy(self.char, org, self.config, components,
                               design.v_wl, design.v_bl)
        if self._ecc_code.check_bits:
            e_sw_rd = e_sw_rd + self._ecc.correct_energy
            e_sw_wr = e_sw_wr + self._ecc.encode_energy
        e_sw, e_leak, e_total = total_energy(
            self.config, e_sw_rd, e_sw_wr, leak_bits,
            self.char.p_leak_sram, d_array,
        )
        # Rail-arrival requirement (Section 4): the assist rails switch
        # at access start and must settle before WL reaches 50% of Vdd
        # at the worst-case row.
        wl_half_time = (
            self.char.decoder.delay(org.row_address_bits)
            + self.char.driver.first_three_delay
            + 0.5 * components.delay("WL_rd")
        )
        rail_settle = np.maximum(
            components.delay("CVDD"), components.delay("CVSS")
        )
        return ArrayMetrics(
            design=design,
            d_rd=d_rd,
            d_wr=d_wr,
            d_array=d_array,
            e_sw_rd=e_sw_rd,
            e_sw_wr=e_sw_wr,
            e_sw=e_sw,
            e_leak=e_leak,
            e_total=e_total,
            edp=e_total * d_array,
            components=components,
            read_parts=read_parts,
            write_parts=write_parts,
            rail_arrival_slack=wl_half_time - rail_settle,
            footprint=self.char.geometry.footprint(org.n_r, org.n_c_phys),
            aspect_ratio=self.char.geometry.aspect_ratio(
                org.n_r, org.n_c_phys),
        )
