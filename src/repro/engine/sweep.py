"""Built-in campaign factories.

Each factory follows one of the paper's sweep axes -- Figure 8 (delay versus
array size) and Figure 10 (area versus array size) -- or opens a new grid
the paper only gestures at: cross-workload comparisons, FIFO depth scans,
library-corner sensitivity.  Campaign records time and measure the whole
synthesised netlist; the paper's own CntAG delay (counter plus worst
decoder) is computed by :func:`repro.analysis.tradeoff.evaluate_cntag`,
which the Figure 8/10 benchmarks use.  Factories are registered by name so
the CLI (``sradgen --campaign NAME``) and the benchmarks can invoke them as
data.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.engine.jobs import Campaign
from repro.flow import FlowSpec

__all__ = [
    "CAMPAIGNS",
    "available_campaigns",
    "build_campaign",
    "campaign_description",
    "register_campaign",
]

CampaignFactory = Callable[[], Campaign]

#: Registered campaign factories, by name.
CAMPAIGNS: Dict[str, CampaignFactory] = {}

#: One-line descriptions recorded at registration, so listing campaigns
#: (``sradgen --list-campaigns``) never has to expand a job grid.
_DESCRIPTIONS: Dict[str, str] = {}


def register_campaign(
    name: str, description: str = ""
) -> Callable[[CampaignFactory], CampaignFactory]:
    """Register a campaign factory under ``name`` without building it.

    Registration is lazy on purpose: building a campaign expands its full
    job grid, and ``import repro.engine`` must not pay for eight grids
    nobody asked for.  The grid is only expanded when
    :func:`build_campaign` is called, which also checks that the factory
    really produces a campaign of the registered name and stamps the
    registered ``description`` onto it.
    """

    def decorator(factory: CampaignFactory) -> CampaignFactory:
        CAMPAIGNS[name] = factory
        _DESCRIPTIONS[name] = description
        return factory

    return decorator


def available_campaigns() -> List[str]:
    """Registered campaign names, sorted."""
    return sorted(CAMPAIGNS)


def campaign_description(name: str) -> str:
    """Registered one-line description of campaign ``name`` (no grid built)."""
    return _DESCRIPTIONS.get(name, "")


def build_campaign(name: str) -> Campaign:
    """Instantiate the registered campaign ``name``."""
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; available: {', '.join(available_campaigns())}"
        ) from None
    campaign = factory()
    if campaign.name != name:
        raise ValueError(
            f"campaign factory registered as {name!r} built {campaign.name!r}"
        )
    if not campaign.description:
        campaign.description = _DESCRIPTIONS.get(name, "")
    return campaign


@register_campaign(
    "smoke",
    description="2 workloads x one 4x4 array x all styles (CI smoke test)",
)
def smoke_campaign() -> Campaign:
    """Tiny grid used by CI and the test suite (seconds, not minutes)."""
    return Campaign.from_grid(
        "smoke",
        workloads=("fifo", "dct"),
        geometries=((4, 4),),
    )


@register_campaign(
    "demo",
    description="4 workloads x 3 array sizes x all styles (quickstart demo)",
)
def demo_campaign() -> Campaign:
    """The headline campaign: 4 workloads x 3 array sizes x all styles."""
    return Campaign.from_grid(
        "demo",
        workloads=("fifo", "dct", "motion_est_read", "zoombytwo"),
        geometries=((4, 4), (8, 8), (16, 16)),
    )


@register_campaign(
    "fig8",
    description=(
        "Fig. 8 axis -- motion-estimation whole-netlist delay vs array size"
    ),
)
def fig8_campaign() -> Campaign:
    """SRAG vs CntAG whole-netlist delay as the array grows (Figure 8's axis).

    Each record times the complete synthesised netlist.  On that measure the
    CntAG is faster from 16x16 up (``motion_est_read`` 16x16: 0.944 vs
    1.002 ns).  The paper's Figure 8 instead sums the counter delay and the
    worst decoder delay (CntAG 1.653 ns at 16x16); that sum lives in
    :func:`repro.analysis.tradeoff.evaluate_cntag` and
    ``benchmarks/test_fig8_delay_vs_array_size.py``.
    """
    return Campaign.from_grid(
        "fig8",
        workloads=("motion_est_read",),
        geometries=((8, 8), (16, 16), (32, 32), (64, 64)),
        styles=(("SRAG", "two-hot"), ("CntAG", "decoders")),
    )


@register_campaign(
    "fig10",
    description=(
        "Fig. 10 axis -- motion-estimation whole-netlist area vs array size"
    ),
)
def fig10_campaign() -> Campaign:
    """SRAG vs CntAG whole-netlist area as the array grows (Figure 10's axis).

    The records' delays are whole-netlist timing too (see
    :func:`fig8_campaign`).
    """
    return Campaign.from_grid(
        "fig10",
        workloads=("motion_est_read", "motion_est_write"),
        geometries=((8, 8), (16, 16), (32, 32), (64, 64)),
        styles=(("SRAG", "two-hot"), ("CntAG", "decoders"), ("CntAG", "adders")),
    )


@register_campaign(
    "cross_workload",
    description="9 workloads x 3 array sizes x all styles",
)
def cross_workload_campaign() -> Campaign:
    """Every Table 3 workload across geometries -- the paper's open grid."""
    return Campaign.from_grid(
        "cross_workload",
        workloads=(
            "fifo",
            "dct",
            "dct_row",
            "motion_est_read",
            "motion_est_write",
            "zoombytwo",
            "strided",
            "block_raster",
            "interleaved_row",
        ),
        geometries=((4, 4), (8, 8), (16, 16)),
    )


@register_campaign(
    "fifo_depths",
    description="FIFO at 7 depths x all styles (Figs. 3-4 axis)",
)
def fifo_depth_campaign() -> Campaign:
    """FIFO/incremental access at many depths (the Figures 3-4 axis)."""
    return Campaign.from_grid(
        "fifo_depths",
        workloads=("fifo",),
        geometries=((4, 4), (4, 8), (8, 8), (8, 16), (16, 16), (16, 32), (32, 32)),
    )


@register_campaign(
    "power",
    description="SRAG vs CntAG vs FSM energy/access, 4 workloads x 3 sizes",
)
def power_campaign() -> Campaign:
    """The paper's deferred future work: SRAG vs CntAG vs FSM power.

    The conclusion of the paper expects decoder decoupling to reduce power
    but states "we have not carried out a rigorous study of it".  This
    campaign is that study on the reproduction's models: every point also
    runs the switching-activity power estimator (256 simulated accesses on
    the compiled simulator), so records carry ``energy_per_access_fj`` /
    ``avg_power_uw`` next to delay and area.
    """
    return Campaign.from_grid(
        "power",
        workloads=("fifo", "dct", "motion_est_read", "zoombytwo"),
        geometries=((4, 4), (8, 8), (16, 16)),
        styles=(
            ("SRAG", "two-hot"),
            ("CntAG", "decoders"),
            ("FSM", "binary"),
        ),
        spec=FlowSpec(power_cycles=256),
    )


@register_campaign(
    "library_corners",
    description="3 workloads x 2 sizes x 3 library corners x all styles",
)
def library_corners_campaign() -> Campaign:
    """Library-corner sensitivity: the demo grid under all three corners."""
    return Campaign.from_grid(
        "library_corners",
        workloads=("fifo", "dct", "motion_est_read"),
        geometries=((8, 8), (16, 16)),
        libraries=("std018", "std018_fast", "std018_lp"),
    )


@register_campaign(
    "opt_levels",
    description="O0 vs O1 logic optimization, 4 workloads x 2 sizes x 4 styles",
)
def opt_levels_campaign() -> Campaign:
    """O0 versus O1: what logic optimization is worth, as a cached metric.

    Every point of a representative workload x geometry x style grid is
    evaluated twice -- once on the raw generated netlist (O0, the numbers
    every earlier campaign reports) and once with the
    :mod:`repro.synth.opt` pipeline enabled (O1, what a real synthesis tool
    would report).  The O1 records carry ``opt_cells_removed`` so the win
    is a first-class, cached, Pareto-comparable metric.
    """
    grid = dict(
        workloads=("fifo", "dct", "motion_est_read", "zoombytwo"),
        geometries=((8, 8), (16, 16)),
        styles=(
            ("SRAG", "two-hot"),
            ("CntAG", "decoders"),
            ("CntAG", "adders"),
            ("FSM", "binary"),
        ),
    )
    baseline = Campaign.from_grid("opt_levels", spec=FlowSpec(opt_level=0), **grid)
    optimized = Campaign.from_grid("opt_levels", spec=FlowSpec(opt_level=1), **grid)
    return baseline.extended(optimized.jobs)
