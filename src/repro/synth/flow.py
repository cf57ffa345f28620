"""Top-level synthesis flow.

``run_synthesis_flow`` is the stand-in for "synthesise this design with
Design Compiler and read area/delay off the report": it validates the
netlist, runs logic optimization at ``spec.opt_level`` 1, inserts buffer
trees on high-fanout nets, and runs static timing analysis and area
accounting against the chosen standard-cell library.  ``spec.lint`` and
``spec.verify`` attach their diagnostics without moving any figure.

The flow rewrites the netlist it measures.  ``run_synthesis_flow`` runs on
a clone, leaving its caller's netlist untouched; a design instead hands
its own netlist to the flow and drops its cache
(:meth:`repro.generators.base.AddressGeneratorDesign.synthesize`).
"""

from __future__ import annotations

from typing import Optional

from repro.flow import DEFAULT_SPEC, FlowSpec
from repro.hdl.netlist import Netlist
from repro.obs import span
from repro.synth.area import area_report
from repro.synth.buffering import MAX_FANOUT, insert_buffer_trees
from repro.synth.opt import optimize_netlist
from repro.synth.report import SynthesisResult
from repro.synth.timing import timing_report

__all__ = ["run_synthesis_flow"]


def run_synthesis_flow(
    netlist: Netlist,
    *,
    spec: FlowSpec = DEFAULT_SPEC,
    name: Optional[str] = None,
) -> SynthesisResult:
    """Optimize, buffer, time and measure ``netlist``; return a :class:`SynthesisResult`.

    Parameters
    ----------
    netlist:
        The design to evaluate.  Optimization and buffer insertion run on a
        clone (the synthesis tool's working copy), so the caller's netlist
        is left untouched and can be re-synthesised -- under another
        library or opt level, say -- without accumulating rewrites.
    spec:
        The flow configuration (:class:`repro.flow.FlowSpec`); defaults to
        an all-defaults spec.  ``spec.library`` picks the standard-cell
        characterisation and ``spec.opt_level`` the logic-optimization
        effort (0 reports on the raw generated netlist, exactly as before
        optimization existed; 1 runs the full :mod:`repro.synth.opt`
        pipeline before buffering and timing, the way a real synthesis tool
        always would).  Buffering always uses
        :data:`~repro.synth.buffering.MAX_FANOUT`.
    name:
        Report name; defaults to the netlist name.
    """
    return _synthesize(netlist.clone(), spec=spec, golden=netlist, name=name)


def _synthesize(
    netlist: Netlist, *, spec: FlowSpec, golden: Optional[Netlist], name: Optional[str],
) -> SynthesisResult:
    """The flow body: validate ``netlist``, rewrite it in place and measure it.

    The caller hands ``netlist`` over and uses it afterwards only through
    the result.  ``golden`` is the pre-flow netlist that ``spec.verify``
    proves the result equivalent to (read only under ``spec.verify``).  The
    other arguments are :func:`run_synthesis_flow`'s.
    """
    cell_library = spec.resolve_library()
    # Every stage runs under a span (free when tracing is disabled); the
    # span tree is the flow's per-stage profile.
    with span("flow.validate"):
        netlist.validate()
    opt_report = None
    if spec.opt_level:
        with span("flow.opt"):
            opt_report = optimize_netlist(netlist)
            # Cheap invariant check: optimization must hand buffering/timing
            # a structurally sound netlist or every figure downstream is
            # garbage.
            netlist.validate()
    with span("flow.buffer"):
        buffers = insert_buffer_trees(netlist)
    with span("flow.timing"):
        timing = timing_report(netlist, cell_library)
    with span("flow.area"):
        area = area_report(netlist, cell_library)
    # Lint is a pure diagnostic over the measured netlist: default-off, and
    # when off the cost is one falsy attribute test, so every
    # pre-existing flow is bit-identical in output *and* time.
    lint_report = None
    if spec.lint:
        from repro.lint.design import lint_netlist, rules_for_level

        with span("flow.lint"):
            lint_report = lint_netlist(
                netlist,
                library=cell_library,
                max_fanout=MAX_FANOUT,
                rules=rules_for_level(spec.lint),
            )
    # Verification shares the lint contract: a default-off diagnostic that
    # proves (SAT-based CEC) the measured netlist still implements the
    # pre-flow netlist, without perturbing any measured figure.
    verify_report = None
    if spec.verify:
        from repro.verify.cec import check_equivalence

        with span("flow.verify"):
            verify_report = check_equivalence(golden, netlist)
    return SynthesisResult(
        name=name or netlist.name,
        area=area,
        timing=timing,
        buffers_inserted=buffers,
        netlist=netlist,
        opt_report=opt_report,
        lint_report=lint_report,
        verify_report=verify_report,
    )
