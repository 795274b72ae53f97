"""The ``run_batch`` scenario hook: batched trials, per-trial bookkeeping.

``fixedpoint-bitwidth`` and ``ipcore-parallelism`` hand the runner a batch
hook that stacks each group of pending trials through one batched-engine
call; ``network-lifetime``'s hook runs its seed-free model once per distinct
parameter set and shares the result among the replicates.  Whatever the route — batch or scalar datapath, serial or pooled,
cold or half-warm cache, fixed or adaptive — the records must compare ``==``
to a plain loop of ``scenario.run_trial`` over ``spec.expand()``.
"""

from __future__ import annotations

import pytest

from repro.core.fixedpoint_mp import FixedPointMatchingPursuit
from repro.core.ipcore import BatchIPCoreEngine
from repro.experiments import ResultCache, get_scenario, registry, run_sweep
from repro.experiments.adaptive import AdaptiveConfig, run_adaptive_sweep
from repro.experiments.runner import trial_record
from repro.telemetry import start_trace, validate_trace

REPLICATES = 3


def _spec(name: str, batch: bool, replicates: int = REPLICATES):
    spec = get_scenario(name).spec
    if name == "fixedpoint-bitwidth":
        spec = spec.with_axis("word_length", (4, 8))
    else:
        spec = spec.with_axis("num_fc_blocks", (1, 14)).with_axis("word_length", (8,))
    return spec.with_base(batch=batch).with_seed(base_seed=5, replicates=replicates)


def _loop_records(spec) -> list[dict]:
    """The reference: every trial through ``run_trial``, one at a time."""
    scenario = get_scenario(spec.scenario)
    return [
        trial_record(spec.scenario, point, scenario.run_trial(point.params, point.seed))
        for point in spec.expand()
    ]


def _strip_batch(record: dict) -> dict:
    return {key: value for key, value in record.items() if key != "batch"}


HOOKED = ("fixedpoint-bitwidth", "ipcore-parallelism")


@pytest.fixture(params=HOOKED)
def scenario_name(request):
    return request.param


def test_hooked_scenarios_declare_run_batch(scenario_name):
    assert get_scenario(scenario_name).run_batch is not None


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_equal_a_loop_of_run_trial(scenario_name, batch, jobs):
    spec = _spec(scenario_name, batch)
    result = run_sweep(spec, jobs=jobs, chunk_size=2)
    assert result.records == _loop_records(spec)
    assert result.stats.executed == result.stats.num_trials == spec.num_trials


def test_half_warm_cache_restamps_hits(scenario_name, tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(_spec(scenario_name, True, replicates=2), cache=cache)
    spec = _spec(scenario_name, True, replicates=4)
    result = run_sweep(spec, cache=cache)
    stats = result.stats
    assert stats.cache_hits == stats.num_trials // 2
    assert stats.executed + stats.cache_hits == stats.num_trials
    # hits carry this sweep's trial_index/replicate, not the first sweep's
    assert result.records == _loop_records(spec)


def test_adaptive_run_is_a_prefix_of_the_fixed_run(scenario_name):
    spec = _spec(scenario_name, True)
    config = AdaptiveConfig(
        metric="support_recovery", ci_width=0.3, max_trials=6,
        min_trials=2, wave_trials=2,
    )
    adaptive = run_adaptive_sweep(spec, config)
    fixed = run_sweep(spec.with_seed(replicates=config.max_trials))
    by_index = {record["trial_index"]: record for record in fixed.records}
    # some point stopped early, so the adaptive run is a proper prefix
    assert 0 < len(adaptive.records) < len(fixed.records)
    assert adaptive.records == [by_index[r["trial_index"]] for r in adaptive.records]


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_has_one_trial_span_per_trial(scenario_name, jobs):
    spec = _spec(scenario_name, True)
    with start_trace() as tracer:
        result = run_sweep(spec, jobs=jobs, chunk_size=2)
    names = [record.name for record in tracer.records]
    assert names.count("trial") == result.stats.num_trials
    assert validate_trace(tracer.records) == []


def test_engine_sees_whole_groups(scenario_name, monkeypatch):
    owner = (
        FixedPointMatchingPursuit if scenario_name == "fixedpoint-bitwidth"
        else BatchIPCoreEngine
    )
    original = owner.estimate_batch
    rows: list[int] = []

    def spy(self, received):
        rows.append(received.shape[0])
        return original(self, received)

    monkeypatch.setattr(owner, "estimate_batch", spy)
    spec = _spec(scenario_name, True)
    result = run_sweep(spec)
    # one call per group of replicates, not one per trial
    assert rows == [REPLICATES, REPLICATES]
    # and the stacked estimates equal the scalar executable spec's
    scalar = _loop_records(_spec(scenario_name, False))
    assert [_strip_batch(r) for r in result.records] == [_strip_batch(r) for r in scalar]


# --------------------------------------------------------------------------- #
# network-lifetime: a seed-free model, memoised per distinct parameter set
# --------------------------------------------------------------------------- #
def _lifetime_spec(batch: bool, replicates: int = REPLICATES):
    spec = get_scenario("network-lifetime").spec
    spec = spec.with_axis("report_interval_s", (60.0, 300.0)).select_zipped(
        "platform", ("MicroBlaze", "Virtex-4 112FC 8bit")
    )
    return spec.with_base(batch=batch).with_seed(base_seed=5, replicates=replicates)


def _count_model_runs(monkeypatch) -> list[dict]:
    calls: list[dict] = []
    original = registry._network_lifetime_metrics

    def spy(params):
        calls.append(dict(params))
        return original(params)

    monkeypatch.setattr(registry, "_network_lifetime_metrics", spy)
    return calls


def test_network_lifetime_declares_run_batch():
    assert get_scenario("network-lifetime").run_batch is not None


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_lifetime_records_equal_a_loop_of_run_trial(batch, jobs):
    spec = _lifetime_spec(batch)
    result = run_sweep(spec, jobs=jobs, chunk_size=5)
    assert result.records == _loop_records(spec)
    assert result.stats.executed == result.stats.num_trials == spec.num_trials


def test_lifetime_half_warm_cache_restamps_hits(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep(_lifetime_spec(True, replicates=2), cache=cache)
    spec = _lifetime_spec(True, replicates=4)
    result = run_sweep(spec, cache=cache)
    stats = result.stats
    assert stats.cache_hits == stats.executed == stats.num_trials // 2
    assert result.records == _loop_records(spec)


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
def test_lifetime_model_runs_once_per_distinct_params(batch, monkeypatch):
    calls = _count_model_runs(monkeypatch)
    spec = _lifetime_spec(batch)
    run_sweep(spec)
    points = spec.num_trials // REPLICATES
    assert len(calls) == (points if batch else spec.num_trials)


def test_lifetime_rows_sharing_a_label_keep_their_own_energy(monkeypatch):
    calls = _count_model_runs(monkeypatch)
    # two rows share a label; `--set platform=MicroBlaze` keeps both
    spec = (
        get_scenario("network-lifetime").spec
        .with_axis("report_interval_s", (60.0,))
        .with_axis("topology", ("grid",))
        .with_zipped({
            "platform": ("MicroBlaze", "TI C6713 DSP", "MicroBlaze"),
            "energy_uj": (2000.40, 500.76, 9.50),
        })
        .select_zipped("platform", ("MicroBlaze",))
        .with_seed(base_seed=5, replicates=REPLICATES)
    )
    result = run_sweep(spec)
    # one memo entry per energy, not one per platform label
    assert sorted(call["energy_uj"] for call in calls) == [9.50, 2000.40]
    assert result.records == _loop_records(spec)
    lifetimes = {(r["energy_uj"], r["lifetime_days"]) for r in result.records}
    assert len(lifetimes) == 2


def test_lifetime_replicates_get_independent_metrics():
    spec = _lifetime_spec(True, replicates=2)
    pairs = list(registry._network_lifetime_batch(spec.expand()))
    first, second = (metrics for point, metrics in pairs if point.index in (0, 1))
    assert first == second and first is not second
