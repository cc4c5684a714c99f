"""ECC-aware yield modeling.

(The issue tracker calls this subsystem ``repro.yield``; ``yield`` is a
Python keyword, so the package is named ``repro.yields``.)

* :mod:`repro.yields.ecc` — error-correcting codes as check-bit columns
  per word: check-bit counts from the data width, plus encode/correct
  delay and energy assembled from the characterized unit gates.
* :mod:`repro.yields.failure` — per-cell failure probability from Monte
  Carlo margin distributions (empirical tail counts cross-checked
  against a Gaussian-tail extrapolation; 1e-9 tails are the
  importance sampler's, :mod:`repro.cell.importance`) and its
  composition into codeword / word / array yield with and without
  correction.
* :mod:`repro.yields.study` — the co-optimization driver comparing the
  fixed-delta baseline against the ECC-relaxed search (imported lazily
  by the study runner / service / CLI; it pulls in the analysis stack).
"""

from .ecc import ECCCode, ECCOverhead, ecc_overhead, hamming_check_bits, \
    make_code, secded_check_bits
from .failure import MIN_TAIL_EVENTS, FailureEstimate, array_yield, \
    coded_p_fail_budget, codeword_fail_probability, estimate_p_fail, \
    margin_relaxation_z, p_fail_empirical, p_fail_gaussian, \
    relaxed_sense_voltage, sense_fail_probability, uncoded_array_yield, \
    uncoded_p_fail_budget, word_fail_probability, z_score

__all__ = [
    "ECCCode",
    "ECCOverhead",
    "FailureEstimate",
    "MIN_TAIL_EVENTS",
    "array_yield",
    "coded_p_fail_budget",
    "codeword_fail_probability",
    "ecc_overhead",
    "estimate_p_fail",
    "hamming_check_bits",
    "make_code",
    "margin_relaxation_z",
    "p_fail_empirical",
    "p_fail_gaussian",
    "relaxed_sense_voltage",
    "secded_check_bits",
    "sense_fail_probability",
    "uncoded_array_yield",
    "uncoded_p_fail_budget",
    "word_fail_probability",
    "z_score",
]
