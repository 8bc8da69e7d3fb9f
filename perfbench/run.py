#!/usr/bin/env python3
"""End-to-end benchmark of the DCIM compiler.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``sweep``   -- closed loop of in-process ``run_campaign`` calls;
* ``compile`` -- closed loop of in-process ``SegaDcim.compile(verify=True)``;
* ``serve``   -- a ``repro serve`` process driven by two closed-loop
  ``CampaignClient`` threads.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (layer functions wrapped from
outside, joined with the program's own spans).  Every op's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
itself runs with every knob at its default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import ops as oplists  # noqa: E402
from reference import reference_seconds  # noqa: E402

#: Setup is measured this many times per run; the median is reported.
SETUP_REPEATS = {"sweep": 5, "compile": 5, "serve": 5}
#: Ops generated per run; far more than any window consumes.
OP_BUDGET = {"sweep": 2000, "compile": 1000, "serve": 4000}
#: Closed-loop clients of the serve workload.
SERVE_CLIENTS = 2
#: Ops per round and reference-kernel runs after each round (about a
#: sixth of the window goes to the kernel).
ROUND_OPS = {"sweep": 1, "compile": 1, "serve": 8}
REFERENCE_RUNS = {"sweep": 2, "compile": 2, "serve": 3}
#: How long a serve setup may wait for ``/api/healthz``.
HEALTH_TIMEOUT_S = 30.0
#: How long one serve op may wait for its job; keeps a hung job from
#: running the benchmark past its time limit.
OP_TIMEOUT_S = 60.0


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program under {SRC}: expected src/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    A shared host's CPUs run at different speeds at the same moment; on
    one CPU the reference kernel times the CPU the server and the ops
    actually ran on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# Statistics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float], beyond: int = 10) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) of the highest percentile
    that still has ``beyond`` samples above it.

    With ``n`` samples that is ``floor(100 * (1 - beyond / n))``; with
    fewer than ``2 * beyond`` samples the median is reported instead.
    """
    n = len(values)
    q = math.floor(100.0 * (1.0 - beyond / n)) if n >= 2 * beyond else 50
    value = percentile(values, q)
    return value, q, sum(1 for v in values if v > value)


# Op results -------------------------------------------------------------


class OpLog:
    """Per-op wall times, outputs and failures of one timed window."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.records: list[dict] = []
        #: Wall times of the reference kernel, timed between rounds.
        self.reference: list[float] = []
        #: Time spent running ops, reference timings excluded.
        self.busy = 0.0

    def add(self, index: int, op: dict, wall_s: float, output=None, error=None):
        self.walls.append(wall_s)
        self.records.append({"index": index, "op": op, "wall_s": wall_s,
                             "output": output, "error": error})

    @property
    def elapsed(self) -> float:
        return max(self.busy, 1e-9)


def closed_loop(ops: list[dict], seconds: float, run_op, clients: int = 1,
                round_ops: int = 1, reference: int = 0) -> OpLog:
    """Run ``ops`` in order from ``clients`` threads until ``seconds`` pass.

    Ops are handed out in rounds of ``round_ops``; after each round, once
    every client is idle, the reference kernel runs ``reference`` times,
    so host speed is sampled all through the window.  An op started
    before the deadline runs to completion.
    """
    log = OpLog()
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    pending: list[int] = []

    def worker() -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline or not pending:
                    return
                index = pending.pop(0)
            start = time.perf_counter()
            try:
                output = run_op(index, ops[index])
                error = None
            except Exception as exc:  # an op failure is a result, not a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            with lock:
                log.add(index, ops[index], wall, output, error)

    cursor = 0
    while cursor < len(ops) and time.perf_counter() < deadline:
        pending[:] = range(cursor, min(cursor + round_ops, len(ops)))
        cursor += len(pending)
        started = time.perf_counter()
        if clients == 1:
            worker()
        else:
            threads = [threading.Thread(target=worker, name=f"client-{i}")
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        log.busy += time.perf_counter() - started
        log.reference.extend(reference_seconds() for _ in range(reference))
    log.records.sort(key=lambda r: r["index"])
    return log


# In-process workloads -----------------------------------------------------


def dcim_spec(payload: dict):
    from repro.service import SpecRequest

    return SpecRequest.from_dict(payload).to_spec()


class SweepOps:
    """``run_campaign`` over a list of DCIM specs, default config."""

    def __init__(self) -> None:
        from repro.service import run_campaign

        self.run_campaign = run_campaign

    def __call__(self, index: int, op: dict):
        from checks import design_pairs

        specs = [dcim_spec(s) for s in op["specs"]]
        result = self.run_campaign(specs)
        return {
            "pairs": design_pairs(result.merged_points, result.merged_objectives),
            "strategies": list(result.strategies),
        }

    def check(self, record: dict, exact) -> tuple[list[str], float | None]:
        output = record["output"]
        specs = [dcim_spec(s) for s in record["op"]["specs"]]
        verdict = exact.check(output["pairs"], specs, output["strategies"])
        return verdict.errors, verdict.recall


class CompileOps:
    """``SegaDcim.compile(spec, verify=True)`` with a seeded GA."""

    def __init__(self) -> None:
        from repro.core.compiler import SegaDcim

        self.compiler = SegaDcim()

    def __call__(self, index: int, op: dict):
        from checks import design_key, design_pairs

        spec = dcim_spec({"wstore": op["wstore"], "precision": op["precision"]})
        result = self.compiler.compile(spec, seed=op["ga_seed"], verify=True)
        lint = result.extras.get("lint")
        selected = result.selected
        return {
            "pairs": design_pairs(result.exploration.points, result.exploration.objectives),
            "strategy": result.exploration.strategy,
            "lint_passed": bool(lint is not None and lint.passed),
            "verified": bool(getattr(result.verification, "passed", False)),
            "selected": design_key(selected.precision, selected.n, selected.h,
                                   selected.l, selected.k),
            "has_rtl": result.rtl is not None,
            "has_layout": result.layout is not None and result.layout.area_mm2 > 0,
        }

    def check(self, record: dict, exact) -> tuple[list[str], float | None]:
        output = record["output"]
        op = record["op"]
        spec = dcim_spec({"wstore": op["wstore"], "precision": op["precision"]})
        verdict = exact.check(output["pairs"], [spec], [output["strategy"]])
        errors = list(verdict.errors)
        if not output["lint_passed"]:
            errors.append("generated RTL failed lint")
        if not output["verified"]:
            errors.append("gate-level verification failed")
        if output["selected"] not in {key for key, _ in output["pairs"]}:
            errors.append("selected design is not on the explored front")
        if not (output["has_rtl"] and output["has_layout"]):
            errors.append("missing RTL bundle or layout")
        return errors, verdict.recall


IN_PROCESS = {"sweep": SweepOps, "compile": CompileOps}


def probe_setup(workload: str) -> int:
    """Child mode: import, load the registry, run the warm-up op, report."""
    require_program()
    import repro.problems  # noqa: F401  (problem registry)

    runner = IN_PROCESS[workload]()
    runner(-1, oplists.WARMUP[workload])
    print("ready", flush=True)
    return 0


def measure_setups(workload: str, repeats: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first op being ready."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe", workload],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate(timeout=60)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {err.strip()[-400:]}")
        samples.append(elapsed)
    return samples


# Serve workload ------------------------------------------------------------


class Server:
    """One ``repro serve`` process with its own SQLite cache and store."""

    def __init__(self, workdir: str, traced: bool = False) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.summary_path = os.path.join(workdir, "layers.json")
        cache = os.path.join(workdir, "cache.sqlite")
        store = os.path.join(workdir, "store.sqlite")
        args = ["serve", "--port", "0", "--cache", cache, "--store", store]
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       self.summary_path, *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(workdir, "server.log"), "w")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.log,
                                        text=True, cwd=ROOT, env=env)
        self.url = None

    def wait_ready(self):
        from repro.service import CampaignClient

        line = self.process.stdout.readline()
        if "serving campaigns on " not in line:
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.url = line.split("serving campaigns on ", 1)[1].split()[0]
        client = CampaignClient(self.url, timeout=60.0)
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while True:
            try:
                if client.health().get("status") == "ok":
                    return client
            except RuntimeError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class ServeOps:
    """HTTP ops against one server: submit -> events -> result, or reads."""

    def __init__(self, client, tracer=None) -> None:
        self.client = client
        self.tracer = tracer
        self.lock = threading.Lock()
        self.done: dict[int, threading.Event] = {}
        self.job_ids: dict[int, str] = {}
        self.seen_jobs: set[str] = set()

    def _event(self, index: int) -> threading.Event:
        with self.lock:
            return self.done.setdefault(index, threading.Event())

    def __call__(self, index: int, op: dict):
        try:
            if self.tracer is not None:
                with self.tracer.span("perfbench.op", root_if_orphan=True):
                    return self._run(index, op)
            return self._run(index, op)
        finally:
            self._event(index).set()

    def _run(self, index: int, op: dict):
        from repro.service import CampaignRequest

        if op["kind"] == "run_read":
            target = op["target"]
            if not self._event(target).wait(timeout=OP_TIMEOUT_S):
                raise RuntimeError(f"op {target} never finished")
            job_id = self.job_ids.get(target)
            if job_id is None:
                raise RuntimeError(f"op {target} has no job to read")
            run_id = self.client.status(job_id)["run_id"]
            return {"run": self.client.run(run_id), "run_id": run_id, "target": target}
        request = CampaignRequest.from_dict(op["request"])
        job_id = self.client.submit(request)
        with self.lock:
            self.job_ids[index] = job_id
            deduplicated = job_id in self.seen_jobs
            self.seen_jobs.add(job_id)
        deadline = time.perf_counter() + OP_TIMEOUT_S
        cursor, done = 0, False
        while not done:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{job_id} did not finish within {OP_TIMEOUT_S:.0f} s")
            _, cursor, done = self.client.events(job_id, cursor, wait_s=5.0)
        return {"response": self.client.result(job_id), "deduplicated": deduplicated}


def serve_check(records: list[dict], exact,
                references: dict) -> dict[int, tuple[list[str], float | None]]:
    """Bit-identity against ``run_campaign`` plus the DCIM front rules.

    ``references`` caches ``run_campaign`` results by request fingerprint.
    """
    from checks import frontier_pairs, response_identity
    from repro.service import CampaignRequest, execute_request

    by_index = {r["index"]: r for r in records}
    verdicts = {}
    for record in records:
        if record["error"] is not None:
            continue
        op = record["op"]
        errors: list[str] = []
        recall = None
        if op["kind"] == "run_read":
            target = by_index.get(op["target"])
            row = record["output"]["run"]
            if target is None or target["error"] is not None:
                errors.append("read target op did not finish")
            else:
                request = CampaignRequest.from_dict(target["op"]["request"])
                response = target["output"]["response"]
                if row.get("run_id") != record["output"]["run_id"]:
                    errors.append("run row has another run id")
                if row.get("status") != "done":
                    errors.append(f"run status {row.get('status')!r}")
                if row.get("fingerprint") != request.fingerprint():
                    errors.append("run fingerprint differs from the request's")
                if row.get("front_size") != len(response.frontier):
                    errors.append("run front size differs from the response's")
            verdicts[record["index"]] = (errors, None)
            continue
        request = CampaignRequest.from_dict(op["request"])
        key = request.fingerprint()
        if key not in references:
            references[key] = response_identity(execute_request(request))
        response = record["output"]["response"]
        if response_identity(response) != references[key]:
            errors.append("response differs from run_campaign on the same request")
        if request.problem == "dcim":
            specs = [s.to_spec() for s in request.specs]
            verdict = exact.check(frontier_pairs(response.frontier), specs,
                                  list(response.strategies))
            errors.extend(verdict.errors)
            recall = verdict.recall
        verdicts[record["index"]] = (errors, recall)
    return verdicts


# Runs ------------------------------------------------------------------------


def finish_checks(log: OpLog, verdicts: dict) -> tuple[int, list[float], list[str]]:
    """(failed ops, recalls, first errors) over the window's ops."""
    failed = 0
    recalls: list[float] = []
    messages: list[str] = []
    for record in log.records:
        if record["error"]:
            errors, recall = [record["error"]], None
        else:
            errors, recall = verdicts.get(record["index"], (["output not checked"], None))
        if recall is not None:
            recalls.append(recall)
        record["errors"] = errors
        if errors:
            failed += 1
            if len(messages) < 5:
                messages.append(f"op {record['index']} ({record['op']['kind']}): {errors[0]}")
    return failed, recalls, messages


def kind_medians(log: OpLog) -> dict:
    """Median wall time (ms) of the window's ops, per op kind."""
    walls: dict[str, list[float]] = {}
    for record in log.records:
        walls.setdefault(record["op"]["kind"], []).append(record["wall_s"] * 1e3)
    return {kind: statistics.median(values) for kind, values in sorted(walls.items())}


def miss_p50(medians: dict) -> float:
    """Geometric mean of the cache-miss kinds' median wall times (ms).

    Each miss kind weighs the same whatever its share of the mix, and a
    kind's median stays inside that kind's own op times.
    """
    return statistics.geometric_mean(
        [value for kind, value in medians.items() if kind in oplists.MISS_KINDS])


def end_to_end(log: OpLog, setups: list[float], failed: int, recalls: list[float],
               peak_rss_mb: float) -> tuple[dict, str]:
    """End-to-end metrics; op timings are in units of the reference kernel.

    ``ref`` is the reference kernel's median wall time in the same
    window, so a metric of 10 ref means ten times as long as the kernel
    on whatever speed the host ran at; wall-clock milliseconds are
    printed beside them.
    """
    ref_ms = statistics.median(log.reference) * 1e3
    walls_ms = [w * 1e3 for w in log.walls]
    tail_ms, q, beyond = tail(walls_ms)
    attempted = len(walls_ms)
    medians = kind_medians(log)
    wall_ms = {
        "wall_p50": statistics.median(walls_ms),
        "miss_p50": miss_p50(medians),
        "wall_tail": tail_ms,
    }
    ops_per_s = (attempted - failed) / log.elapsed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **{f"{name}_ref": (value / ref_ms, "ref") for name, value in wall_ms.items()},
        "ops_per_ref": (ops_per_s * ref_ms / 1e3, "1/ref"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "front_recall": (statistics.fmean(recalls) if recalls else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (f"reference kernel p50 {ref_ms:.3f} ms over {len(log.reference)} samples; "
            f"wall clock: " + ", ".join(f"{k}_ms {v:.2f}" for k, v in wall_ms.items())
            + f", ops_per_s {ops_per_s:.3f}\n"
            f"wall_tail is p{q} ({beyond} samples beyond, {attempted} ops); "
            f"failed_ratio {failed / attempted:.4f}; "
            f"setup samples {[round(s, 3) for s in setups]}\n"
            f"wall p50 by kind (ms): {({k: round(v, 2) for k, v in medians.items()})}")
    return metrics, note


def layer_metrics(summary: dict, ops: int, op_wall_ms: float, overhead: float,
                  dedup_ratio: float) -> tuple[dict, list[str]]:
    """Per-layer metrics (per traced op) from a recorder summary."""
    from layers import TARGETS

    layers = summary.get("layers", {})
    spans = summary.get("spans", {})
    missing_targets = set(summary.get("missing", []))
    missing_layers = {
        layer for layer, target, _ in TARGETS
        if all(t in missing_targets for l2, t, _ in TARGETS if l2 == layer)
    }
    if "spans" in missing_targets:
        missing_layers.add("spans")
    per = max(ops, 1)

    def ms(layer):
        return layers.get(layer, {}).get("self_ms", 0.0) / per

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0) / per

    def units(layer):
        return layers.get(layer, {}).get("units", 0) / per

    def span_ms(name):
        return spans.get(name, {}).get("self_ms", 0.0) / per

    requested = units("ga.requested") + units("explore.exhaustive")
    keys = summary.get("cache_keys", 0)
    metric_layers = {
        "pareto.filter_ms": (ms("pareto.filter"), "ms/op", "pareto.filter"),
        "pareto.points_in": (units("pareto.filter"), "count/op", "pareto.filter"),
        "explore.exhaustive_specs": (calls("explore.exhaustive"), "count/op", "explore.exhaustive"),
        "explore.ga_specs": (calls("explore.ga"), "count/op", "explore.ga"),
        "ga.breed_ms": (ms("ga.breed"), "ms/op", "ga.breed"),
        "ga.sort_ms": (ms("ga.sort"), "ms/op", "ga.sort"),
        "ga.crowding_ms": (ms("ga.crowding"), "ms/op", "ga.crowding"),
        "genome.repair_ms": (ms("genome.repair"), "ms/op", "genome.repair"),
        "genome.repair_calls": (calls("genome.repair"), "count/op", "genome.repair"),
        "eval.batch_ms": (ms("eval.batch"), "ms/op", "eval.batch"),
        "eval.genomes": (units("eval.batch"), "count/op", "eval.batch"),
        "eval.fresh_ratio": (units("eval.batch") / requested if requested else 0.0, "ratio",
                             "ga.requested"),
        "campaign.merge_ms": (ms("campaign.merge"), "ms/op", "campaign.merge"),
        "distill.ms": (ms("distill"), "ms/op", "distill"),
        "rtl.generate_ms": (ms("rtl.generate"), "ms/op", "rtl.generate"),
        "rtl.lint_ms": (ms("rtl.lint"), "ms/op", "rtl.lint"),
        "layout.pnr_ms": (ms("layout.pnr"), "ms/op", "layout.pnr"),
        "verify.ms": (ms("verify"), "ms/op", "verify"),
        "verify.vectors": (units("verify"), "count/op", "verify"),
        "cache.get_many_ms": (span_ms("cache.get_many"), "ms/op", "spans"),
        "cache.put_many_ms": (span_ms("cache.put_many") + span_ms("cache.flush"), "ms/op",
                              "spans"),
        "cache.hit_ratio": (1.0 - summary.get("cache_misses", 0) / keys if keys else 0.0,
                            "ratio", "spans"),
        "jobs.queue_wait_ms": (span_ms("job.queue_wait"), "ms/op", "spans"),
        "jobs.run_ms": (span_ms("job.run"), "ms/op", "spans"),
        "jobs.dedup_ratio": (dedup_ratio, "ratio", None),
        "http.self_ms": (span_ms("http.request"), "ms/op", "spans"),
        "store.record_ms": (ms("store.record"), "ms/op", "store.record"),
        "trace.overhead_ratio": (overhead, "ratio", None),
        "untraced_ratio": (max(0.0, 1.0 - summary.get("covered_ms", 0.0) / op_wall_ms)
                           if op_wall_ms > 0 else 0.0, "ratio", None),
    }
    metrics = {name: (value, unit) for name, (value, unit, _) in metric_layers.items()}
    missing = sorted(name for name, (_, _, layer) in metric_layers.items()
                     if layer in missing_layers)
    return metrics, missing


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import ExactFronts

    ops = oplists.GENERATORS[workload](seed, OP_BUDGET[workload])
    setups = [] if trace else measure_setups(workload, SETUP_REPEATS[workload])
    runner = IN_PROCESS[workload]()
    runner(-1, oplists.WARMUP[workload])
    if trace:
        from layers import Recorder
        from repro.obs import get_tracer

        recorder = Recorder()
        recorder.prepare()
        recorder.attach(get_tracer())

        def run_op(index, op):
            # Each op runs twice, traced and plain, in alternating order;
            # the wrappers must not change what the op returns.
            walls, outputs = {}, {}
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    recorder.install()
                start = time.perf_counter()
                try:
                    outputs[traced] = runner(index, op)
                finally:
                    walls[traced] = time.perf_counter() - start
                    if traced:
                        recorder.uninstall()
            if outputs[True] != outputs[False]:
                raise RuntimeError("traced and plain runs of the op returned different outputs")
            return dict(outputs[True], walls=walls)

        log = closed_loop(ops, seconds, run_op)
    else:
        log = closed_loop(ops, seconds, runner, round_ops=ROUND_OPS[workload],
                          reference=REFERENCE_RUNS[workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exact = ExactFronts()
    verdicts = {}
    for record in log.records:
        if record["error"] is None:
            verdicts[record["index"]] = runner.check(record, exact)
    failed, recalls, messages = finish_checks(log, verdicts)
    result = {"log": log, "failed": failed, "messages": messages, "ops": ops}
    if trace:
        done = [r["output"]["walls"] for r in log.records if r["error"] is None]
        op_wall_ms = sum(w[True] for w in done) * 1e3
        overhead = statistics.median(w[True] / w[False] for w in done) if done else 0.0
        result["layers"] = layer_metrics(recorder.summary(), len(done), op_wall_ms,
                                         overhead, 0.0)
    else:
        result["e2e"] = end_to_end(log, setups, failed, recalls, peak_rss_mb)
    return result


def serve_window(ops, seconds, workdir, traced: bool, reference: int = 0):
    """One server, one timed window; returns (log, server peak RSS, server)."""
    server = Server(workdir, traced=traced)
    try:
        client = server.wait_ready()
        tracer = None
        if traced:
            from repro.obs import Tracer

            tracer = Tracer()
        runner = ServeOps(client, tracer=tracer)
        runner(-1, oplists.WARMUP["serve"])
        runner.done.clear()
        log = closed_loop(ops, seconds, runner, clients=SERVE_CLIENTS,
                          round_ops=ROUND_OPS["serve"],
                          reference=reference)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return log, rss, server


def dedup_ratio(log: OpLog) -> float:
    submits = [r for r in log.records
               if r["error"] is None and "deduplicated" in (r["output"] or {})]
    if not submits:
        return 0.0
    return sum(1 for r in submits if r["output"]["deduplicated"]) / len(submits)


def run_serve(seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from checks import ExactFronts

    ops = oplists.serve_ops(seed, OP_BUDGET["serve"])
    base = os.path.join(WORK, f"serve-{os.getpid()}")
    try:
        setups = []
        if not trace:
            for attempt in range(SETUP_REPEATS["serve"]):
                start = time.perf_counter()
                server = Server(os.path.join(base, f"setup-{attempt}"))
                try:
                    client = server.wait_ready()
                    ServeOps(client)(-1, oplists.WARMUP["serve"])
                    setups.append(time.perf_counter() - start + import_s)
                finally:
                    server.stop()
            log, rss, _ = serve_window(ops, seconds, os.path.join(base, "window"), False,
                                       reference=REFERENCE_RUNS["serve"])
            logs = [log]
        else:
            plain, _, _ = serve_window(ops, seconds / 2, os.path.join(base, "plain"), False)
            log, rss, server = serve_window(ops, seconds / 2, os.path.join(base, "traced"), True)
            with open(server.summary_path) as handle:
                summary = json.load(handle)
            logs = [plain, log]
        exact = ExactFronts()
        references: dict[str, dict] = {}
        failed, recalls, messages = 0, [], []
        for checked in logs:
            verdicts = serve_check(checked.records, exact, references)
            counts = finish_checks(checked, verdicts)
            failed += counts[0]
            recalls += counts[1]
            messages += counts[2]
        result = {"log": log, "failed": failed, "messages": messages, "ops": ops,
                  "attempted": sum(len(checked.records) for checked in logs)}
        result["kinds"] = kind_shares(log)
        if trace:
            op_wall_ms = sum(log.walls) * 1e3
            overhead = statistics.median(log.walls) / statistics.median(plain.walls)
            result["layers"] = layer_metrics(summary, len(log.walls), op_wall_ms, overhead,
                                             dedup_ratio(log))
        else:
            result["e2e"] = end_to_end(log, setups, failed, recalls, rss)
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def kind_shares(log: OpLog) -> dict:
    counts: dict[str, int] = {}
    for record in log.records:
        counts[record["op"]["kind"]] = counts.get(record["op"]["kind"], 0) + 1
    total = max(len(log.records), 1)
    return {kind: round(n / total, 4) for kind, n in sorted(counts.items())}


def write_record(workload: str, seed: int, trace: bool, result: dict, metrics: dict) -> str:
    """Replayable run record: seed, op list actually run, per-op outcome."""
    log: OpLog = result["log"]
    ran = max((r["index"] for r in log.records), default=-1) + 1
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "ops": result["ops"][:ran],
        "outcomes": [
            {"index": r["index"], "wall_ms": r["wall_s"] * 1e3, "errors": r.get("errors", [])}
            for r in log.records
        ],
        "kinds": result.get("kinds"),
        "p50_by_kind_ms": kind_medians(log),
        "reference_ms": [seconds * 1e3 for seconds in log.reference],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    path = os.path.join(WORK, "runs", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, default=str)
    return path


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(oplists.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=sorted(IN_PROCESS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe:
            return probe_setup(args.probe)
        if not args.workload:
            parser.error("--workload is required")
        require_program()
        pin_to_one_cpu()
        import repro.service  # noqa: F401  (the client side of every workload)

        import_s = time.perf_counter() - started
        trace = bool(args.trace)
        if args.workload == "serve":
            result = run_serve(args.seed, args.seconds, trace, import_s)
        else:
            result = run_in_process(args.workload, args.seed, args.seconds, trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log: OpLog = result["log"]
    attempted = result.get("attempted", len(log.records))
    missing: list[str] = []
    if trace:
        metrics, missing = result["layers"]
    else:
        metrics, note = result["e2e"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {log.elapsed:.2f} s, {result['failed']} failed")
    if result.get("kinds"):
        print(f"request kinds: {result['kinds']}")
    for message in result["messages"]:
        print(f"FAILED {message}")
    if not trace:
        print(note)
    if missing:
        print(f"missing layers (wrapped function not found): {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    path = write_record(args.workload, args.seed, trace, result, metrics)
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
