"""Tests for multi-spec campaign runs: sharding, caching, front merges."""

import pytest

from repro.core.pareto import dominates
from repro.core.spec import DcimSpec
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.service.cache import EvaluationCache
from repro.service.campaign import CampaignConfig, run_campaign
from repro.service.executor import SerialExecutor

SPECS = [
    DcimSpec(wstore=4096, precision="INT4"),
    DcimSpec(wstore=4096, precision="INT8"),
]
SMALL_GA = NSGA2Config(population_size=16, generations=8)


def small_config(**overrides) -> CampaignConfig:
    # These tests exercise the GA path (events, sharding, cancellation
    # windows), so opt out of the exhaustive-enumeration default.
    overrides.setdefault("exhaustive_threshold", 0)
    return CampaignConfig(nsga2=SMALL_GA, seed=3, **overrides)


def front_keys(result):
    return [(p.precision.name, p.n, p.h, p.l, p.k) for p in result.merged_points]


class TestMergeCorrectness:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(SPECS, small_config())

    def test_matches_explorer_merge(self, campaign):
        explorer = DesignSpaceExplorer(config=SMALL_GA)
        results = [explorer.explore(s, seed=3 + i) for i, s in enumerate(SPECS)]
        merged = DesignSpaceExplorer.merge_fronts(results)
        assert set(front_keys(campaign)) == {
            (p.precision.name, p.n, p.h, p.l, p.k) for p in merged
        }

    def test_merged_front_mutually_nondominated(self, campaign):
        rows = [tuple(r) for r in campaign.merged_objectives]
        for i, u in enumerate(rows):
            for j, v in enumerate(rows):
                if i != j:
                    assert not dominates(u, v)

    def test_merged_front_spans_inputs(self, campaign):
        union = {
            (r.spec.precision.name, p.n, p.h, p.l, p.k)
            for r in campaign.results
            for p in r.points
        }
        assert set(front_keys(campaign)) <= union

    def test_objectives_sorted_by_area(self, campaign):
        areas = [row[0] for row in campaign.merged_objectives]
        assert areas == sorted(areas)

    def test_evaluations_accumulate(self, campaign):
        assert campaign.evaluations == sum(r.evaluations for r in campaign.results)
        assert campaign.wall_time_s > 0


class TestEngineSelection:
    def test_chunked_executor_bit_identical(self):
        plain = run_campaign(SPECS, small_config())
        chunked = run_campaign(
            SPECS, small_config(), executor=SerialExecutor(chunk_size=7)
        )
        assert front_keys(plain) == front_keys(chunked)
        assert plain.merged_objectives.tolist() == chunked.merged_objectives.tolist()


class TestSharding:
    def test_shared_executor_left_open(self):
        class ClosingSpy(SerialExecutor):
            closed = False

            def close(self):
                self.closed = True

        executor = ClosingSpy()
        run_campaign(SPECS, small_config(), executor=executor)
        # A caller-owned executor is never closed by the campaign.
        assert not executor.closed

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            run_campaign([], small_config())


class TestWarmCache:
    def test_second_run_hits_over_90_percent(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with EvaluationCache(path) as cache:
            cold = run_campaign(SPECS, small_config(), cache=cache)
        assert cold.cache_stats.misses > 0
        # Fresh process-equivalent: reopen the persisted cache.
        with EvaluationCache(path) as cache:
            warm = run_campaign(SPECS, small_config(), cache=cache)
        assert warm.cache_stats.hit_rate >= 0.9
        assert warm.cache_stats.misses == 0
        assert warm.fresh_evaluations == 0
        assert cold.fresh_evaluations == cold.evaluations
        assert front_keys(cold) == front_keys(warm)

    def test_cache_stats_are_per_campaign(self):
        cache = EvaluationCache()
        first = run_campaign(SPECS, small_config(), cache=cache)
        second = run_campaign(SPECS, small_config(), cache=cache)
        # The second campaign's snapshot counts only its own lookups.
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hits == first.cache_stats.misses

    def test_uncached_campaign_reports_none(self):
        result = run_campaign(SPECS[:1], small_config())
        assert result.cache_stats is None


class TestWriteBehind:
    def test_flush_cadence_never_changes_results(self, tmp_path):
        plain = run_campaign(SPECS, small_config())
        with EvaluationCache(tmp_path / "wb.sqlite") as cache:
            buffered = run_campaign(
                SPECS, small_config(cache_flush_every=64), cache=cache
            )
            assert cache.pending_writes == 0  # flushed on campaign exit
        assert front_keys(plain) == front_keys(buffered)
        assert plain.merged_objectives.tolist() == buffered.merged_objectives.tolist()

    def test_flush_cadence_stays_out_of_fingerprint(self, tmp_path):
        from repro.service.campaign import _campaign_fingerprint

        assert _campaign_fingerprint(SPECS, small_config()) == _campaign_fingerprint(
            SPECS, small_config(cache_flush_every=64)
        )

    def test_rejects_negative_cadence(self):
        with pytest.raises(ValueError, match="cache_flush_every"):
            CampaignConfig(cache_flush_every=-1)

    def test_cancelled_campaign_flushes_completed_work(self, tmp_path):
        from repro.service.events import CampaignCancelled, EventKind

        path = tmp_path / "cancelled.sqlite"
        seen = {"generations": 0}

        def observer(event):
            if event.kind is EventKind.GENERATION_DONE:
                seen["generations"] += 1

        with EvaluationCache(path) as cache:
            with pytest.raises(CampaignCancelled):
                run_campaign(
                    SPECS,
                    small_config(cache_flush_every=10_000),  # never hits threshold
                    cache=cache,
                    observer=observer,
                    should_stop=lambda: seen["generations"] >= 2,
                )
            assert cache.pending_writes == 0
            stored = len(cache)
        assert stored > 0  # completed evaluations survived the cancel
        with EvaluationCache(path) as reopened:
            assert len(reopened) == stored  # ...and are really on disk


class TestObserverAndCancellation:
    def test_observer_never_changes_results(self):
        events = []
        plain = run_campaign(SPECS, small_config())
        observed = run_campaign(SPECS, small_config(), observer=events.append)
        assert front_keys(plain) == front_keys(observed)
        assert (
            plain.merged_objectives.tolist()
            == observed.merged_objectives.tolist()
        )
        assert plain.evaluations == observed.evaluations

    def test_event_stream_shape(self):
        from repro.service.events import EventKind

        events = []
        run_campaign(SPECS, small_config(), observer=events.append)
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.SPEC_STARTED) == len(SPECS)
        assert kinds.count(EventKind.SPEC_DONE) == len(SPECS)
        assert kinds.count(EventKind.GENERATION_DONE) == (
            len(SPECS) * SMALL_GA.generations
        )
        assert kinds[-1] is EventKind.CAMPAIGN_DONE
        done = events[-1]
        assert done.front_size > 0
        assert done.wall_time_s > 0
        labels = {e.spec for e in events if e.spec}
        assert labels == {"4096:INT4", "4096:INT8"}

    def test_should_stop_raises_campaign_cancelled(self):
        from repro.service.events import CampaignCancelled, EventKind

        events = []
        seen = {"generations": 0}

        def stop_after_two() -> bool:
            return seen["generations"] >= 2

        def observer(event):
            events.append(event)
            if event.kind is EventKind.GENERATION_DONE:
                seen["generations"] += 1

        with pytest.raises(CampaignCancelled):
            run_campaign(
                SPECS,
                small_config(),
                observer=observer,
                should_stop=stop_after_two,
            )
        kinds = [e.kind for e in events]
        assert EventKind.CAMPAIGN_DONE not in kinds
        assert kinds.count(EventKind.GENERATION_DONE) < (
            len(SPECS) * SMALL_GA.generations
        )

    def test_cached_campaign_reports_cache_hit_rate(self):
        from repro.service.events import EventKind

        cache = EvaluationCache()
        run_campaign(SPECS, small_config(), cache=cache)
        events = []
        run_campaign(SPECS, small_config(), cache=cache, observer=events.append)
        rates = [
            e.cache_hit_rate
            for e in events
            if e.kind is EventKind.GENERATION_DONE
        ]
        # Warm cache: by the end everything is served from it.
        assert rates[-1] > 0.9
