"""Campaign engine: parallel, cached, persistent design-space exploration.

The paper closes by calling for "algorithms and heuristics which can explore
the vast design space opened up by address decoder decoupling".  This
package is the scaffolding for that exploration at scale:

* :mod:`repro.engine.jobs` -- declarative :class:`EvalJob`/:class:`Campaign`
  grids over (workload x geometry x style x library x encoding) with stable
  content-hash keys per job;
* :mod:`repro.engine.cache` -- a content-addressed on-disk result store, so
  re-running a campaign only evaluates new points;
* :mod:`repro.engine.scheduler` -- :class:`Scheduler` owns the warmed
  worker pool, chunking and error policy, and dedups concurrent
  submissions by content hash (two clients asking for the same grid point
  share one in-flight evaluation);
* :mod:`repro.engine.runner` -- :class:`CampaignRunner`, the thin
  synchronous scheduler client: submits a campaign, streams
  :class:`EvalRecord` results back in campaign order, and merges
  campaign-level Pareto fronts;
* :mod:`repro.engine.sweep` -- built-in campaigns along the paper's
  Figure 8/10 axes (whole-netlist figures) plus new cross-workload grids;
* :mod:`repro.engine.pareto` -- the O(n log n) Pareto sweep shared with the
  interactive explorer.
"""

from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    Campaign,
    EvalJob,
    STYLE_VARIANTS,
    build_design,
    candidate_factories,
)
from repro.engine.pareto import pareto_indices, pareto_min
from repro.engine.runner import CampaignResult, CampaignRunner, EvalRecord, evaluate_job
from repro.engine.scheduler import Scheduler, SchedulerTimeout, Submission
from repro.engine.sweep import (
    CAMPAIGNS,
    available_campaigns,
    build_campaign,
    campaign_description,
    register_campaign,
)

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "CampaignRunner",
    "EvalJob",
    "EvalRecord",
    "ResultCache",
    "STYLE_VARIANTS",
    "Scheduler",
    "SchedulerTimeout",
    "Submission",
    "available_campaigns",
    "build_campaign",
    "build_design",
    "campaign_description",
    "candidate_factories",
    "evaluate_job",
    "pareto_indices",
    "pareto_min",
    "register_campaign",
]
