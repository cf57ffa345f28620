"""The paper's primary contribution.

* :mod:`repro.core.mapper` / :mod:`repro.core.mapping_params` -- the SRAdGen
  automatic mapping procedure of Section 5 and its parameter records
  (Table 2).
* :mod:`repro.core.srag` -- the Shift Register based Address Generator of
  Section 4, as both a behavioural model and a structural elaboration.
* :mod:`repro.core.addm_generator` -- the complete two-hot generator (row
  SRAG + column SRAG) for an address decoder-decoupled memory.
* :mod:`repro.core.sradgen` -- the end-to-end SRAdGen tool flow (sequence in,
  VHDL/Verilog + synthesis report out).

The package root imports nothing: import each name from its defining
submodule, so a process loads only the layers it runs.
"""
