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
  synchronous scheduler client: submits a campaign and streams its
  records back in campaign order;
* :mod:`repro.engine.records` -- :class:`EvalRecord`, one job's outcome,
  and :class:`CampaignResult`, which merges campaign-level Pareto fronts
  (plain data: reading records loads no evaluation code);
* :mod:`repro.engine.sweep` -- built-in campaigns along the paper's
  Figure 8/10 axes (whole-netlist figures) plus new cross-workload grids;
* :mod:`repro.engine.pareto` -- the O(n log n) Pareto sweep shared with the
  interactive explorer.

The package root imports nothing: import each name from its defining
submodule, so a process loads only the layers it runs.
"""
