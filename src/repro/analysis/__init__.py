"""Trade-off analysis and design-space exploration.

* :mod:`repro.analysis.tradeoff` -- SRAG-versus-CntAG evaluation producing
  the records behind Figures 8-10 and Table 3.
* :mod:`repro.analysis.explorer` -- multi-architecture design-space
  exploration with Pareto filtering (the paper's stated future-work goal).
* :mod:`repro.analysis.reporting` -- plain-text table/series formatting used
  by the benchmark harnesses.

The package root imports nothing: import each name from its defining
submodule, so a process loads only the layers it runs.
"""
