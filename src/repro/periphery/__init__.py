"""Peripheral circuit models and their simulator-based characterization.

Public API:

* :func:`characterize` — build the full :class:`ArrayCharacterization`
  (all LUTs + constants) for one cell flavor.
* :class:`DecoderModel`, :class:`SuperbufferModel` — structural models.
* :func:`characterize_inverter`, :func:`characterize_nand` — unit gates.
* :func:`characterize_senseamp`, :func:`characterize_i_on_tg`,
  :func:`i_on_pfet` — the remaining Table-2 drive characterizations.
"""

from .characterize import (
    DELTA_V_SENSE,
    ArrayCharacterization,
    CharacterizationGrids,
    characterize,
    characterize_write_delay_scale,
)
from .decoder import DecoderModel, build_decoder_model
from .driver import STAGE_FINS, SuperbufferModel, build_superbuffer_circuit, scaled_gate
from .gates import (
    GateCharacterization,
    characterize_inverter,
    characterize_nand,
    inverter_circuit,
    nand_circuit,
)
from .precharge import PRECHARGE_CURRENT_COEFF, i_on_pfet, precharge_current
from .senseamp import (
    SenseAmpCharacterization,
    build_senseamp_circuit,
    characterize_senseamp,
)
from .writebuffer import (
    WRITE_CURRENT_COEFF,
    build_tg_discharge_circuit,
    characterize_i_on_tg,
    write_drive_current,
)

__all__ = [
    "DELTA_V_SENSE",
    "PRECHARGE_CURRENT_COEFF",
    "STAGE_FINS",
    "WRITE_CURRENT_COEFF",
    "ArrayCharacterization",
    "CharacterizationGrids",
    "DecoderModel",
    "GateCharacterization",
    "SenseAmpCharacterization",
    "SuperbufferModel",
    "build_decoder_model",
    "build_senseamp_circuit",
    "build_superbuffer_circuit",
    "build_tg_discharge_circuit",
    "characterize",
    "characterize_i_on_tg",
    "characterize_inverter",
    "characterize_nand",
    "characterize_senseamp",
    "characterize_write_delay_scale",
    "i_on_pfet",
    "inverter_circuit",
    "nand_circuit",
    "precharge_current",
    "scaled_gate",
    "write_drive_current",
]
