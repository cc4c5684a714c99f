"""Transient cell write delay (a few real transient runs; kept lean)."""

import numpy as np
import pytest

from repro.cell import cell_write_event
from repro.cell.bias import CellBias
from repro.cell.write_delay import _measure_write_event
from repro.errors import CharacterizationError
from repro.spice.waveform import TransientResult

VDD = 0.45


@pytest.fixture(scope="module")
def events(hvt_cell):
    """Three write events reused by all assertions below."""
    return {
        "nominal": cell_write_event(hvt_cell, v_wl=VDD, vdd=VDD),
        "wlod": cell_write_event(hvt_cell, v_wl=0.54, vdd=VDD),
        "negbl": cell_write_event(hvt_cell, v_wl=VDD, vdd=VDD,
                                  v_bl_low=-0.1),
    }


def test_writes_complete(events):
    for event in events.values():
        assert event.completed
        assert event.delay > 0
        assert event.energy > 0


def test_wlod_speeds_up_write(events):
    assert events["wlod"].delay < 0.7 * events["nominal"].delay


def test_negative_bl_speeds_up_write(events):
    assert events["negbl"].delay < 0.7 * events["nominal"].delay


def test_write_delay_scale_is_picoseconds(events):
    assert 1e-13 < events["nominal"].delay < 1e-10


def test_energy_scale_is_femtojoules(events):
    assert 1e-18 < events["nominal"].energy < 1e-12


def test_flip_before_the_wordline_names_its_bias():
    """A cell that flips before WL reaches Vdd/2 raises with the write
    bias it ran under."""
    times = np.array([0.0, 1e-12, 2e-12, 3e-12])
    zeros = np.zeros_like(times)
    result = TransientResult(
        times,
        {"wl": np.array([0.0, 0.0, 0.0, VDD]),
         "q": np.array([VDD, 0.0, 0.0, 0.0]),
         "qb": np.array([0.0, VDD, VDD, VDD])},
        dict.fromkeys(("vddc", "vssc", "vwl", "vbl", "vblb"), zeros),
        dict.fromkeys(("vddc", "vssc", "vwl", "vbl", "vblb"), zeros),
    )
    bias = CellBias.write(vdd=VDD, v_wl=0.5, v_bl_low=-0.3)
    with pytest.raises(CharacterizationError,
                       match="V_WL=0.500 V, V_BL=-0.300 V") as info:
        _measure_write_event(result, bias)
    assert info.value.bias is bias
