"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They prove that the output checks can fail (negative controls), that
inputs replay from the seed, that the layer recorder survives renamed
functions, and that the benchmark refuses to run without the program.
The steadiness self-check (two back-to-back sets of runs must agree
within the bounds of ``BENCHMARK.json``) is ``python3 perfbench/steady.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402


@pytest.fixture(scope="module")
def sweep_output():
    """One real exhaustive campaign: its specs and its checked output."""
    specs = [run.dcim_spec({"wstore": 4096, "precision": p}) for p in ("INT4", "BF16")]
    from repro.service import run_campaign

    result = run_campaign(specs)
    pairs = checks.design_pairs(result.merged_points, result.merged_objectives)
    return specs, pairs, list(result.strategies)


@pytest.fixture(scope="module")
def exact():
    return checks.ExactFronts()


def test_real_front_passes(sweep_output, exact):
    specs, pairs, strategies = sweep_output
    assert strategies == ["exhaustive", "exhaustive"]
    verdict = exact.check(pairs, specs, strategies)
    assert verdict.ok, verdict.errors
    assert verdict.recall == 1.0


def test_dropped_point_is_flagged(sweep_output, exact):
    specs, pairs, strategies = sweep_output
    verdict = exact.check(pairs[1:], specs, strategies)
    assert not verdict.ok
    assert verdict.recall < 1.0
    assert any("missing" in error for error in verdict.errors)


def test_perturbed_point_is_flagged(sweep_output, exact):
    specs, pairs, strategies = sweep_output
    key, vector = pairs[len(pairs) // 2]
    perturbed = list(pairs)
    perturbed[len(pairs) // 2] = (key, (vector[0] * (1 - 1e-9),) + tuple(vector[1:]))
    verdict = exact.check(perturbed, specs, strategies)
    assert not verdict.ok
    assert any("true objectives" in error for error in verdict.errors)


def test_dominated_point_is_flagged(sweep_output, exact):
    specs, pairs, strategies = sweep_output
    space = exact.space(specs[0])
    front = {tuple(v) for _, v in pairs}
    dominated = next(pair for pair in sorted(space.pairs) if pair[1] not in space.front)
    verdict = exact.check(pairs + [dominated], specs, strategies)
    assert any("dominated" in error for error in verdict.errors)
    assert dominated[1] not in front


def test_ga_spec_points_only_count_towards_recall(sweep_output, exact):
    specs, pairs, _ = sweep_output
    verdict = exact.check(pairs[1:], specs, ["ga", "ga"])
    assert verdict.ok
    assert verdict.recall < 1.0


def test_response_identity_flags_a_changed_frontier():
    from repro.service import CampaignRequest, execute_request

    request = CampaignRequest(specs=({"wstore": 4096, "precision": "INT8"},), seed=3)
    response = execute_request(request)
    again = execute_request(request)
    assert checks.response_identity(response) == checks.response_identity(again)
    payload = response.to_dict()
    payload["frontier"][0]["objectives"][0] *= 1.0 + 1e-12
    changed = type(response).from_dict(payload)
    assert checks.response_identity(changed) != checks.response_identity(response)


def test_naive_front_keeps_ties_and_drops_dominated():
    front = checks.naive_front([(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)])
    assert front == {(1.0, 2.0), (2.0, 1.0)}


@pytest.mark.parametrize("workload", sorted(ops.GENERATORS))
def test_ops_replay_from_the_seed(workload):
    generate = ops.GENERATORS[workload]
    assert generate(7, 60) == generate(7, 60)
    assert generate(7, 60) != generate(8, 60)


def test_serve_references_point_back():
    generated = ops.serve_ops(3, 300)
    assert len(generated) == 300
    for index, op in enumerate(generated):
        if "target" in op:
            assert op["target"] <= index - ops.REFERENCE_GAP
    kinds = {op["kind"] for op in generated}
    assert kinds == set(ops.SERVE_ROUND)


def test_sweep_ops_run_one_ga_spec_each():
    generated = ops.sweep_ops(5, 90)
    for op in generated:
        large = [s for s in op["specs"]
                 if s["precision"] == "FP32" and s["wstore"] in ops.FP32_LARGE]
        assert len(large) == 1
        assert len({(s["wstore"], s["precision"]) for s in op["specs"]}) == len(op["specs"])
    sizes = sorted(len(op["specs"]) for op in generated)
    assert sizes == sorted(ops.SWEEP_SPEC_COUNTS * (90 // len(ops.SWEEP_SPEC_COUNTS)))
    assert {s["precision"] for op in generated for s in op["specs"]} == set(ops.PRECISIONS)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, q, beyond = run.tail(values)
    assert q == 90 and beyond == 10 and value == pytest.approx(89.1)
    assert run.tail(values[:15])[1] == 50


def test_innermost_self_times_split_nested_and_skewed_intervals():
    selfs = layers.innermost_self_times([(0.0, 10.0), (2.0, 4.0), (3.0, 5.0)])
    assert selfs == pytest.approx([7.0, 1.0, 2.0])
    assert layers.overlap((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0


def test_renamed_layer_function_is_reported_missing(monkeypatch):
    renamed = (("ga.breed", "repro.dse.kernels:breed_offspring_renamed", "timed"),)
    monkeypatch.setattr(layers, "TARGETS", renamed + tuple(
        t for t in layers.TARGETS if t[0] != "ga.breed"))
    recorder = layers.Recorder()
    recorder.prepare()
    assert recorder.missing == ["repro.dse.kernels:breed_offspring_renamed"]
    recorder.install()
    try:
        run.SweepOps()(0, ops.WARMUP["sweep"])
    finally:
        recorder.uninstall()
    metrics, missing = run.layer_metrics(recorder.summary(), 1, 1.0, 1.0, 0.0)
    assert missing == ["ga.breed_ms"]
    assert metrics["ga.breed_ms"][0] == 0.0
    assert metrics["pareto.points_in"][0] > 0


def test_uninstall_restores_every_reference():
    import repro.dse.kernels as kernels

    nsga2 = sys.modules["repro.dse.nsga2"]
    before = (kernels.breed_offspring, nsga2.breed_offspring)
    recorder = layers.Recorder()
    recorder.prepare()
    recorder.install()
    assert nsga2.breed_offspring is not before[1]
    recorder.uninstall()
    assert (kernels.breed_offspring, nsga2.breed_offspring) == before


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench-work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spread_and_drift_helpers():
    assert steady.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert steady.worse_by(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert steady.worse_by(10.0, 12.0, "higher") == pytest.approx(-0.2)



def test_miss_p50_weighs_each_miss_kind_once():
    medians = {"novel_dcim": 100.0, "novel_mapping": 400.0, "reseed_dcim": 60.0,
               "repeat": 15.0}
    assert run.miss_p50(medians) == pytest.approx(200.0)
    assert run.miss_p50({"campaign": 120.0}) == pytest.approx(120.0)


def test_closed_loop_samples_the_reference_between_rounds():
    log = run.closed_loop([{"kind": "x"}] * 7, 60.0, lambda index, op: index, clients=2,
                          round_ops=3, reference=2)
    assert [r["output"] for r in log.records] == list(range(7))
    assert len(log.reference) == 2 * 3  # rounds of 3, 3 and 1 ops
    assert all(seconds > 0 for seconds in log.reference)
