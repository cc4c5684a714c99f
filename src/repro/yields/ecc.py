"""Error-correcting codes as check-bit columns per word.

A code adds ``check_bits`` physical columns beside every stored word.
The array model threads that count through
:class:`~repro.array.organization.ArrayOrganization` (``n_c_phys``), so
the extra columns flow through the existing Table-1/2/3 component
equations — wider rows mean larger C_CVDD/C_CVSS/C_WL/C_COL and more
leaking cells, while the decoders keep addressing the logical geometry.

Check-bit counts
----------------

A Hamming code over ``d`` data bits needs the smallest ``k`` with
``2**k >= d + k + 1``; SECDED (single-error-correct, double-error-
detect) adds one overall parity bit.  ``W = 64`` data bits therefore
carry ``k = 8`` check bits (the classic (72,64) code).  An interleaved
variant ``secded-xN`` splits the word into ``N`` independent SECDED
codewords of ``W/N`` data bits each — more check bits, but each
codeword tolerates its own single-bit error, so a word survives up to
``N`` cell failures when they land in different ways.

Encode / correct overhead
-------------------------

The syndrome logic is XOR trees over the codeword plus a syndrome
decoder, assembled from the same characterized unit gates the row
decoder uses (:mod:`repro.periphery.gates` via the decoder model):

* an XOR2 is the standard four-NAND2 cell: critical path three NAND2
  stages, and on a toggling input about half the internal nodes move,
  so its switching energy is counted as two NAND2 events;
* encoding computes ``k`` parity trees in parallel — depth
  ``ceil(log2(h))`` XORs over the ``h ~ ceil(n/2)`` positions each
  check bit covers, ``h - 1`` XOR gates per tree;
* correction recomputes the same trees over the read codeword, XORs
  each against the stored check bit (one more stage), decodes the
  ``k``-bit syndrome with the structural decoder model (a k-to-2^k
  decoder is exactly what a syndrome decoder is), and applies the
  correcting XOR.

Interleaved ways run in parallel: delay is one way's, energy scales
with the way count.  All terms are independent of the array
organization, which is what keeps the search's lower
bounds admissible — the same constants appear in the production
evaluation and in the bound evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DesignSpaceError


def hamming_check_bits(data_bits):
    """Smallest ``k`` with ``2**k >= data_bits + k + 1`` (SEC code)."""
    if data_bits < 1:
        raise DesignSpaceError(
            "a code needs at least 1 data bit, got %r" % (data_bits,)
        )
    k = 1
    while (1 << k) < data_bits + k + 1:
        k += 1
    return k


def secded_check_bits(data_bits):
    """Hamming check bits plus the overall SECDED parity bit."""
    return hamming_check_bits(data_bits) + 1


@dataclass(frozen=True)
class ECCCode:
    """One resolved code: geometry and correction capability.

    ``interleave`` ways each protect ``data_bits_per_way`` data bits
    with ``check_bits_per_way`` check bits and correct up to ``t``
    errors per codeword.  ``check_bits`` is the total per stored word —
    the number of extra physical columns each word carries.
    """

    name: str
    data_bits: int
    interleave: int
    check_bits_per_way: int
    t: int

    def __post_init__(self):
        if self.interleave < 1:
            raise DesignSpaceError("interleave must be >= 1")
        if self.data_bits % self.interleave:
            raise DesignSpaceError(
                "interleave %d does not divide the %d-bit word"
                % (self.interleave, self.data_bits)
            )

    @property
    def data_bits_per_way(self):
        return self.data_bits // self.interleave

    @property
    def check_bits(self):
        """Total check bits per stored word (extra columns)."""
        return self.check_bits_per_way * self.interleave

    @property
    def codeword_bits(self):
        """Physical bits per codeword (one interleave way)."""
        return self.data_bits_per_way + self.check_bits_per_way

    @property
    def corrects(self):
        return self.t > 0

    def describe(self):
        if not self.corrects:
            return "none"
        base = "(%d,%d) SECDED" % (self.codeword_bits,
                                   self.data_bits_per_way)
        if self.interleave > 1:
            return "%dx %s" % (self.interleave, base)
        return base


def make_code(name, word_bits):
    """Resolve a code name for a ``word_bits``-bit word.

    * ``"none"`` — no code, no check columns.
    * ``"secded"`` — one SECDED codeword over the whole word.
    * ``"secded-xN"`` — N interleaved SECDED codewords (N must divide
      the word width).
    """
    if name == "none":
        return ECCCode(name="none", data_bits=word_bits, interleave=1,
                       check_bits_per_way=0, t=0)
    if name == "secded":
        return ECCCode(name="secded", data_bits=word_bits, interleave=1,
                       check_bits_per_way=secded_check_bits(word_bits),
                       t=1)
    if name.startswith("secded-x"):
        try:
            ways = int(name[len("secded-x"):])
        except ValueError:
            ways = 0
        if ways < 2:
            raise DesignSpaceError("malformed code name %r" % (name,))
        if word_bits % ways:
            raise DesignSpaceError(
                "%d-way interleave does not divide a %d-bit word"
                % (ways, word_bits)
            )
        return ECCCode(
            name=name, data_bits=word_bits, interleave=ways,
            check_bits_per_way=secded_check_bits(word_bits // ways), t=1,
        )
    raise DesignSpaceError(
        "unknown ECC code %r (expected 'none', 'secded' or 'secded-xN')"
        % (name,)
    )


@dataclass(frozen=True)
class ECCOverhead:
    """Organization-independent encode/correct delay and energy terms."""

    encode_delay: float
    encode_energy: float
    correct_delay: float
    correct_energy: float

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0, 0.0, 0.0)


def _xor_tree(n_inputs, xor_delay, xor_energy):
    """(delay, energy) of a balanced parity tree over ``n_inputs``."""
    if n_inputs <= 1:
        return 0.0, 0.0
    depth = int(math.ceil(math.log2(n_inputs)))
    gates = n_inputs - 1
    return depth * xor_delay, gates * xor_energy


def ecc_overhead(code, decoder):
    """Encode/correct overhead of ``code`` from characterized gates.

    ``decoder`` is the structural
    :class:`~repro.periphery.decoder.DecoderModel` — it carries the
    characterized unit NAND2 (for the XOR cells) and doubles as the
    syndrome decoder (a ``k``-bit address decode).  Returns
    :meth:`ECCOverhead.zero` for a non-correcting code, so the
    no-ECC evaluation path adds exact zeros (or skips the adds
    entirely).
    """
    if not code.corrects:
        return ECCOverhead.zero()
    nand2 = decoder.nands[2]
    # XOR2 = four NAND2s: three-stage critical path, ~two toggling
    # gate events; each stage drives the next XOR's input (two NAND
    # gate inputs).
    xor_load = 2.0 * nand2.c_input
    xor_delay = 3.0 * nand2.delay(xor_load)
    xor_energy = 2.0 * nand2.energy(xor_load)

    k = code.check_bits_per_way
    n_cw = code.codeword_bits
    coverage = (n_cw + 1) // 2    # positions per Hamming check tree

    tree_delay, tree_energy = _xor_tree(coverage, xor_delay, xor_energy)
    # Encode: k parallel parity trees over the data bits.
    encode_delay = tree_delay
    encode_energy = k * tree_energy
    # Correct: the same trees over the read codeword, one extra XOR
    # against the stored check bit, the syndrome decode, and the
    # correcting XOR on the failing bit.
    correct_delay = (
        tree_delay + xor_delay
        + float(decoder.delay(k))
        + xor_delay
    )
    correct_energy = (
        k * (tree_energy + xor_energy)
        + float(decoder.energy(k))
        + xor_energy
    )
    ways = code.interleave
    return ECCOverhead(
        encode_delay=encode_delay,
        encode_energy=ways * encode_energy,
        correct_delay=correct_delay,
        correct_energy=ways * correct_energy,
    )
