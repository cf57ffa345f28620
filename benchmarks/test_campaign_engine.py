"""Campaign engine at benchmark scale: cold evaluation versus cached replay.

Runs the ``demo`` campaign (4 workloads x 3 array sizes x all styles) twice
against one persistent cache: the first pass evaluates every grid point, the
second is pure cache replay.  The printed report shows the campaign-level
Pareto fronts -- the cross-workload summary the paper's closing section asks
for -- and the speedup the result cache delivers, which is what lets the
figure-sweep campaigns (``fig8``, ``fig10``) and downstream analyses consume
previously-computed design points instead of re-synthesising them.
"""

import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.runner import CampaignRunner
from repro.engine.sweep import build_campaign


@pytest.fixture(scope="module")
def campaign_cache_dir(tmp_path_factory):
    """Module-scoped persistent cache shared by the cold and warm passes."""
    return str(tmp_path_factory.mktemp("campaign_cache"))


@pytest.fixture(scope="module")
def cold_result(campaign_cache_dir):
    start = time.perf_counter()
    result = CampaignRunner(ResultCache(campaign_cache_dir), workers=0).run(
        build_campaign("demo")
    )
    return result, time.perf_counter() - start


def test_campaign_cold_run_covers_the_grid(benchmark, print_report, cold_result):
    result, _ = benchmark.pedantic(lambda: cold_result, rounds=1, iterations=1)
    assert result.hits == 0
    assert len(result.records) == len(build_campaign("demo"))
    # Every (workload, geometry) group produced a usable Pareto front.
    fronts = result.pareto_fronts()
    assert len(fronts) == 4 * 3
    for front in fronts.values():
        assert front
    print_report(result.describe())


def test_campaign_warm_run_is_pure_cache_replay(
    benchmark, print_report, campaign_cache_dir, cold_result
):
    cold, cold_seconds = cold_result

    def replay():
        start = time.perf_counter()
        result = CampaignRunner(ResultCache(campaign_cache_dir), workers=0).run(
            build_campaign("demo")
        )
        return result, time.perf_counter() - start

    warm, warm_seconds = benchmark.pedantic(replay, rounds=1, iterations=1)
    assert warm.hits == len(warm.records)
    assert warm.evaluated == 0
    # Cached records reproduce the cold run's fronts exactly.
    assert {
        group: [record.key for record in front]
        for group, front in warm.pareto_fronts().items()
    } == {
        group: [record.key for record in front]
        for group, front in cold.pareto_fronts().items()
    }
    print_report(
        f"campaign replay: cold {cold_seconds * 1000:.0f} ms -> "
        f"warm {warm_seconds * 1000:.0f} ms "
        f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x) for "
        f"{len(warm.records)} design points, 100% cache hits"
    )
