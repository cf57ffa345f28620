"""Static analysis of synthesised netlists.

* :mod:`repro.lint.core` -- the rule engine: a *rule* has a stable dotted
  id and a severity, and yields :class:`~repro.lint.core.Finding` objects
  collected into a :class:`~repro.lint.core.LintReport`.
* :mod:`repro.lint.design` -- structural design rules over the
  :class:`~repro.hdl.netlist.Netlist` IR (combinational loops, undriven or
  multiply-driven nets, clock-network discipline), run as
  an optional post-synthesis flow stage (``FlowSpec(lint=1)`` /
  ``sradgen --lint``).

The repository's own Python rules share the engine but are not part of the
package: they live in ``tools/sradlint_rules.py``, beside the
``tools/sradlint.py`` front end that CI runs.

The package root imports nothing: import each name from its defining
submodule, so ``--lint`` loads only the design checker.
"""
