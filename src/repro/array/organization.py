"""Array organization: rows, columns, word width, capacity.

The paper assumes ``n_r`` and ``n_c`` are powers of two with
``M = n_r * n_c`` bits total and ``W`` bits accessed per cycle.  When
``n_c > W`` a column multiplexer (with its own decoder and drivers) is
needed; when ``n_c <= W`` all column-mux terms vanish (Table 1/Table 3
case splits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DesignSpaceError
from ..units import is_power_of_two, log2_int

#: Word width used throughout the paper's evaluation [bits].
DEFAULT_WORD_BITS = 64


def _log2_int_array(values, name):
    """Elementwise :func:`log2_int` with power-of-two validation."""
    values = np.asarray(values)
    bits = np.round(np.log2(np.maximum(values, 1))).astype(np.int64)
    if np.any(values <= 0) or np.any(np.int64(2) ** bits != values):
        raise DesignSpaceError(
            "%s must be powers of two, got %r" % (name, values)
        )
    return bits


@dataclass(frozen=True)
class ArrayOrganization:
    """A validated (n_r, n_c, W) organization."""

    n_r: int
    n_c: int
    word_bits: int = DEFAULT_WORD_BITS
    #: ECC check bits stored per word (extra physical columns beside the
    #: ``n_c`` logical data columns; 0 = no code).  Check columns widen
    #: the rows — every row-spanning wire/device count scales with
    #: :attr:`n_c_phys` — but do not change addressing: the decoders see
    #: only the logical geometry, and ``n_c_phys`` need not be a power
    #: of two.
    check_bits: int = 0

    #: Scalar organization: one (n_r, n_c) pair per instance.
    is_broadcast = False

    def __post_init__(self):
        for name, value in (("n_r", self.n_r), ("n_c", self.n_c)):
            if not is_power_of_two(value):
                raise DesignSpaceError(
                    "%s must be a power of two, got %r" % (name, value)
                )
        if not is_power_of_two(self.word_bits):
            raise DesignSpaceError(
                "word_bits must be a power of two, got %r" % (self.word_bits,)
            )
        if self.check_bits < 0:
            raise DesignSpaceError(
                "check_bits must be >= 0, got %r" % (self.check_bits,)
            )

    @classmethod
    def from_capacity(cls, capacity_bits, n_r, word_bits=DEFAULT_WORD_BITS):
        """Organization of a ``capacity_bits`` array with ``n_r`` rows."""
        if not is_power_of_two(capacity_bits):
            raise DesignSpaceError(
                "capacity must be a power of two bits, got %r"
                % (capacity_bits,)
            )
        if capacity_bits % n_r:
            raise DesignSpaceError(
                "n_r=%d does not divide capacity %d bits" % (n_r, capacity_bits)
            )
        return cls(n_r=n_r, n_c=capacity_bits // n_r, word_bits=word_bits)

    @property
    def capacity_bits(self):
        """Total bits M = n_r * n_c."""
        return self.n_r * self.n_c

    @property
    def capacity_bytes(self):
        return self.capacity_bits // 8

    @property
    def has_column_mux(self):
        """True when n_c > W (column multiplexer present)."""
        return self.n_c > self.word_bits

    @property
    def row_address_bits(self):
        """log2(n_r) — the row-decoder input width."""
        return log2_int(self.n_r)

    @property
    def column_address_bits(self):
        """log2(n_c / W) — the column-decoder input width (0 without mux)."""
        if not self.has_column_mux:
            return 0
        return log2_int(self.n_c // self.word_bits)

    @property
    def words_per_row(self):
        return max(self.n_c // self.word_bits, 1)

    @property
    def n_c_phys(self):
        """Physical columns per row: data plus per-word check columns."""
        if not self.check_bits:
            return self.n_c
        return self.n_c + self.check_bits * self.words_per_row

    @property
    def word_bits_phys(self):
        """Physical bits accessed per word (data + check bits)."""
        return self.word_bits + self.check_bits

    def __str__(self):
        return "%dx%d (W=%d)" % (self.n_r, self.n_c, self.word_bits)


class BroadcastOrganization:
    """A stacked axis of organizations sharing one word width.

    ``n_r`` / ``n_c`` are integer arrays (the search's tile bounds shape
    them ``(R, 1)`` against a ``(1, S)`` V_SSC axis); every property
    mirrors :class:`ArrayOrganization` but returns arrays of the same
    shape, so :meth:`SRAMArrayModel.evaluate_bounds` covers a
    capacity's whole row-count axis in one call.

    Consumers branch on ``is_broadcast`` where the scalar class uses a
    Python ``if`` over ``has_column_mux`` — the array path computes
    both case expressions with the scalar path's exact arithmetic and
    selects with :func:`numpy.where`, which keeps broadcast results
    bit-identical to the per-organization evaluation.
    """

    is_broadcast = True

    def __init__(self, n_r, n_c, word_bits=DEFAULT_WORD_BITS,
                 check_bits=0):
        self.n_r = np.asarray(n_r)
        self.n_c = np.asarray(n_c)
        self.word_bits = word_bits
        self.check_bits = check_bits
        if not is_power_of_two(word_bits):
            raise DesignSpaceError(
                "word_bits must be a power of two, got %r" % (word_bits,)
            )
        if check_bits < 0:
            raise DesignSpaceError(
                "check_bits must be >= 0, got %r" % (check_bits,)
            )
        self._row_bits = _log2_int_array(self.n_r, "n_r")
        self._col_bits = _log2_int_array(self.n_c, "n_c")
        # The derived arrays are tiny but consumed by every Table-1/2/3
        # case split; precomputing them keeps repeated property reads
        # out of the broadcast hot path.
        self._mux_mask = self.n_c > self.word_bits
        self._col_address_bits = np.where(
            self._mux_mask,
            self._col_bits - log2_int(self.word_bits),
            0,
        )

    @property
    def capacity_bits(self):
        """Total bits M = n_r * n_c (elementwise)."""
        return self.n_r * self.n_c

    @property
    def has_column_mux(self):
        """Boolean mask: True where n_c > W."""
        return self._mux_mask

    @property
    def row_address_bits(self):
        """log2(n_r) — the row-decoder input width (integer array)."""
        return self._row_bits

    @property
    def column_address_bits(self):
        """log2(n_c / W) where a mux exists, 0 elsewhere."""
        return self._col_address_bits

    @property
    def words_per_row(self):
        return np.maximum(self.n_c // self.word_bits, 1)

    @property
    def n_c_phys(self):
        """Physical columns per row (elementwise; == n_c without ECC)."""
        if not self.check_bits:
            return self.n_c
        return self.n_c + self.check_bits * self.words_per_row

    @property
    def word_bits_phys(self):
        """Physical bits accessed per word (data + check bits)."""
        return self.word_bits + self.check_bits

    def __str__(self):
        return "<%d organizations (W=%d)>" % (self.n_r.size, self.word_bits)
