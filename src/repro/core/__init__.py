"""The paper's primary contribution.

* :mod:`repro.core.mapper` / :mod:`repro.core.mapping_params` -- the SRAdGen
  automatic mapping procedure of Section 5 and its parameter records
  (Table 2).
* :mod:`repro.core.srag` -- the Shift Register based Address Generator of
  Section 4, as both a behavioural model and a structural elaboration.
* :mod:`repro.core.addm_generator` -- the complete two-hot generator (row
  SRAG + column SRAG) for an address decoder-decoupled memory.
* :mod:`repro.core.two_hot` -- two-hot encoding helpers.
* :mod:`repro.core.sradgen` -- the end-to-end SRAdGen tool flow (sequence in,
  VHDL/Verilog + synthesis report out).
"""

from repro.core.addm_generator import SragAddressGenerator
from repro.core.mapper import map_address_sequence, map_sequence
from repro.core.mapping_params import MappingError, SragMapping
from repro.core.srag import SragFunctionalModel, SragPorts, build_srag
from repro.core.sradgen import SRAdGenResult, generate
from repro.core.two_hot import (
    encode_two_hot,
    is_valid_two_hot,
    one_hot_width,
    two_hot_width,
)

__all__ = [
    "SragAddressGenerator",
    "map_address_sequence",
    "map_sequence",
    "MappingError",
    "SragMapping",
    "SragFunctionalModel",
    "SragPorts",
    "build_srag",
    "SRAdGenResult",
    "generate",
    "encode_two_hot",
    "is_valid_two_hot",
    "one_hot_width",
    "two_hot_width",
]
