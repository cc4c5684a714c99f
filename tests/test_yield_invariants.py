"""Invariants of the yield composition and of the shifted importance
sampler's weights, over random draws.

``tests/test_yields_failure.py`` and ``tests/test_cell_importance.py``
check chosen points; these check what every input must obey: array
yield falls as the cell failure probability rises, for every code
``make_code`` accepts, with the right values at the ends and the
identity for ``code="none"``; a per-cell failure budget meets its
yield target and shrinks as the target rises; the defensive mixture's
log-weights stay under ``-log a``, and the Kish effective sample size
lies in [1, n].  And the two margin-floor relaxations read one margin
function: the importance sampler's solver answers the Gaussian
relaxation's Monte Carlo draw with its samples, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cell.bias import CellBias
from repro.cell.importance import (
    DEFENSIVE_FRACTION,
    MarginSolver,
    TailSampleBuffer,
    cell_margin_solver,
    mixture_log_weights,
)
from repro.cell.montecarlo import MarginSampleMemo
from repro.cell.sram6t import SRAM6TCell
from repro.yields.ecc import make_code
from repro.yields.failure import (
    array_yield,
    coded_p_fail_budget,
    uncoded_array_yield,
)

#: Relative slack of the yield comparisons.  A yield is a product of up
#: to millions of per-codeword survivals, each a few ulps off, so two
#: routes to the same number agree to about 1e-13, far inside this.
REL_TOL = 1e-9

WORD_BITS = (1, 2, 8, 16, 32, 64, 128, 256)

probabilities = st.floats(0.0, 1.0)
#: Probabilities spread over the decades a yield budget can reach.
tiny_probabilities = st.integers(1, 300).map(lambda k: 10.0 ** -k)
n_words = st.integers(1, 1 << 20)


@st.composite
def codes(draw):
    """Every code ``make_code`` accepts for some word width: no code,
    one SECDED word, and each interleave that divides the width."""
    word_bits = draw(st.sampled_from(WORD_BITS))
    names = ["none", "secded"] + [
        "secded-x%d" % ways for ways in range(2, word_bits + 1)
        if word_bits % ways == 0]
    return make_code(draw(st.sampled_from(names)), word_bits)


@settings(max_examples=300, deadline=None)
@given(code=codes(), words=n_words,
       p=st.one_of(probabilities, tiny_probabilities),
       q=st.one_of(probabilities, tiny_probabilities),
       nudge=st.integers(0, 64))
# The failure mass of a (72,64) codeword is within an ulp of 1 here;
# 1 - q alone read 0 at the lower p and 7e-207 at the higher one.
@example(code=make_code("secded-x2", 128), words=7,
         p=0.5022385584334831, q=0.7705231398308006, nudge=0)
def test_array_yield_never_rises_with_p_fail(code, words, p, q, nudge):
    lo, hi = min(p, q), max(p, q)
    # Also compare neighbours a few ulps apart, where rounding, not the
    # model, decides the order.
    for _ in range(nudge):
        hi = math.nextafter(hi, 2.0) if hi < 1.0 else hi
    y_lo, y_hi = array_yield(lo, code, words), array_yield(hi, code, words)
    assert 0.0 <= y_hi <= y_lo * (1.0 + REL_TOL)


@settings(max_examples=100, deadline=None)
@given(code=codes(), words=n_words)
def test_array_yield_ends(code, words):
    assert array_yield(0.0, code, words) == 1.0
    assert array_yield(1.0, code, words) == 0.0


@settings(max_examples=300, deadline=None)
@given(word_bits=st.sampled_from(WORD_BITS), words=n_words,
       p=st.one_of(probabilities, tiny_probabilities))
def test_no_code_is_the_uncoded_yield(word_bits, words, p):
    code = make_code("none", word_bits)
    coded = array_yield(p, code, words)
    uncoded = uncoded_array_yield(p, words * code.codeword_bits)
    assert math.isclose(coded, uncoded, rel_tol=REL_TOL, abs_tol=0.0)


#: Yield targets log-uniform over [1e-300, 0.999].
yield_targets = st.floats(math.log(1e-300), math.log(0.999)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(code=codes(), words=n_words, y=yield_targets, z=yield_targets)
# One (72,64) codeword at Y = 1e-15: bisecting on the failure mass,
# which is within an ulp of 1 there, gave a budget yielding 6.6e-17.
@example(code=make_code("secded", 64), words=1, y=1e-15, z=1e-12)
def test_budget_meets_its_yield_target(code, words, y, z):
    budget = coded_p_fail_budget(y, code, words)
    assert array_yield(budget, code, words) >= y * (1.0 - REL_TOL)
    lo, hi = min(y, z), max(y, z)
    assert (coded_p_fail_budget(hi, code, words)
            <= coded_p_fail_budget(lo, code, words))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(1e-3, 1.0),
       shift_sigmas=st.floats(0.0, 30.0),
       spread=st.floats(0.1, 30.0))
def test_log_weights_never_exceed_the_defensive_bound(seed, sigma,
                                                      shift_sigmas,
                                                      spread):
    rng = np.random.default_rng(seed)
    shift = rng.normal(0.0, sigma * shift_sigmas, 6)
    rows = rng.normal(0.0, sigma * spread, (64, 6)) + rng.random() * shift
    log_w = mixture_log_weights(rows, shift, sigma)
    assert np.all(log_w <= -math.log(DEFENSIVE_FRACTION))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       search_floor=st.floats(0.0, 0.06),
       blocks=st.integers(2, 40),
       floor=st.floats(-0.05, 0.1))
def test_shifted_ess_lies_between_one_and_n(seed, search_floor, blocks,
                                            floor):
    # The search floor sets the shift: none from 0.05 up, where the
    # origin already fails, and a longer one the lower the floor.
    rng = np.random.default_rng(seed)
    gain = rng.normal(size=6)
    solver = MarginSolver(lambda shifts: 0.05 - 0.1 * shifts @ gain)
    buffer = TailSampleBuffer(
        solver, sampler="shifted", sigma_vt=0.02, seed=seed, block=8,
        search_floor=search_floor)
    buffer.ensure(8 * blocks)
    estimate = buffer.estimate(floor)
    assert 1.0 <= estimate.ess <= estimate.n_samples


@pytest.mark.parametrize("flavor", ["hvt", "lvt"])
@pytest.mark.parametrize("v_ddc,v_ssc", [(0.55, 0.0), (0.64, -0.1)])
def test_sampled_and_gaussian_relaxations_read_one_margin_function(
        library, flavor, v_ddc, v_ssc):
    """``YieldTargetConstraint`` takes the Gaussian relaxation's sigma
    from a ``MarginSampleMemo`` and the sampled one from
    ``cell_margin_solver``; at the memo's own draw the two agree."""
    cell = SRAM6TCell.from_library(library, flavor)
    vdd = library.vdd
    memo = MarginSampleMemo(cell, vdd, 40, 0)
    solver = cell_margin_solver(
        cell, vdd, CellBias.read(vdd=vdd, v_ddc=v_ddc, v_ssc=v_ssc))
    sampled = solver(memo.shift_matrix)
    assert sampled.tobytes() == memo.min_margin(v_ddc, v_ssc).tobytes()
