"""The two passes of one workload: untraced (end-to-end) and traced (per layer)."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

from . import engine, isolate, layers, tracing
from .engine import StreamResult
from .workloads import ISSUE_SECONDS, WORKLOADS, Op, Plan, Workload

__all__ = ["PassResult", "run_pass"]

TRACED_SHARE = 4  # the traced pass runs a quarter of the stream, one client
ONECORE_OPS = 100  # of ISSUE 13's 30-second sizing, scaled like every other count


@dataclass
class PassResult:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)

    def detail(self) -> dict:
        """Everything about the pass: rows with sample counts, failure texts."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.traced,
            "attempted": self.attempted,
            "failures": self.failures,
            "rows": {name: list(row) for name, row in self.metrics.items()},
        }

    def contract_line(self) -> str:
        """The one JSON object the driver reads from the last stdout line."""
        return json.dumps(
            {
                "correct": not self.failures,
                "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in self.metrics.items()
                },
            }
        )


def _user_bytes(ops: list[Op]) -> int:
    """Bytes of ids + keywords the writes among ``ops`` carried."""
    return sum(
        len(op.object_id) + sum(len(keyword) for keyword in op.keywords)
        for op in ops
        if op.is_write
    )


def _finish(plan: Plan, stream: StreamResult, deployment) -> dict[str, float]:
    """Verify, then tear down (a durable fleet also restarts); storage rows."""
    storage: dict[str, float] = {}
    try:
        oracle = engine.verify(plan, stream, deployment)
        if deployment.data_dir is not None:
            storage = engine.restart_check(deployment, stream, oracle)
    finally:
        deployment.close()
    return storage


def run_untraced(workload: Workload, seed: int, seconds: float, scratch: Path) -> PassResult:
    plan = workload.plan(seed, workload.timed_ops(seconds))
    deployment, setup_s = engine.set_up_repeated(workload, plan, scratch)
    try:
        stream = engine.drive(deployment, plan.timed, workload.clients)
        metrics = engine.end_to_end(stream, setup_s)
    except BaseException:
        deployment.close()
        raise
    _finish(plan, stream, deployment)
    if not stream.wire_bytes:  # the simulator: sized on an untimed replay
        replayed, ops = engine.replayed_wire_bytes(workload, plan, scratch)
        metrics["wire_bytes_per_op"] = (replayed / ops, "B", ops)
    return PassResult(
        workload.name, seed, False, len(stream.ops) + stream.checks, stream.failures, metrics
    )


def run_traced(workload: Workload, seed: int, seconds: float, scratch: Path) -> PassResult:
    """Same stream at a quarter of the op count with one client: once
    bare (the overhead baseline), once under the span wrappers."""
    loadavg = os.getloadavg()[0]
    calib_ms = isolate.calibration_ms()
    plan = workload.plan(seed, max(20, workload.timed_ops(seconds) // TRACED_SHARE))

    def bare_rate() -> float:
        deployment, _ = engine.set_up(workload, plan, scratch)
        try:
            bare = engine.drive(deployment, plan.timed, 1)
        finally:
            deployment.close()
        return len(bare.ops) / bare.wall

    # Each later TCP deployment of a process runs faster than the one
    # before (README, hazard 5), so the traced deployment is compared
    # with the mean of a bare one before it and a bare one after it.
    bare_before = bare_rate()

    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        deployment, _ = engine.set_up(workload, plan, scratch)
        try:
            before = layers.CounterSnapshot(deployment)
            fsyncs = recorder.fsyncs
            recorder.enabled = True
            stream = engine.drive(
                deployment, plan.timed, 1, before_op=lambda i: setattr(recorder, "op", i)
            )
            recorder.enabled = False
            fsyncs = recorder.fsyncs - fsyncs  # under the default policy: none per append
            delta = layers.CounterSnapshot(deployment).since(before)
            user_bytes = _user_bytes(stream.ops)
            selfs = tracing.self_times(recorder.spans)
            breakdown = layers.op_breakdown(recorder, stream, selfs)
            rows = dict.fromkeys(layers.PER_LAYER, 0.0)
            rows.update(
                layers.layer_metrics(recorder, stream, delta, user_bytes, selfs, breakdown)
            )
            rows["sim.metrics.samples_held"] = layers.samples_held(deployment)
            rows["net.aio.connections_opened"] = deployment.counter("net.connections_opened")
            rows.update(isolate.isolation_rows(deployment, recorder.frames, plan.timed, scratch))
            if workload.name == "superset-fanout":
                slice_ops = plan.timed[: round(ONECORE_OPS * seconds / ISSUE_SECONDS)]
                rows["net.aio.onecore_ratio"] = isolate.onecore_ratio(
                    lambda: len(slice_ops) / engine.drive(deployment, slice_ops, 2).wall
                )
        except BaseException:
            deployment.close()
            raise
        storage = _finish(plan, stream, deployment)
    if storage:
        rows["store.file.recover_ms_per_krecord"] = storage["recover_ms_per_krecord"]
        written = _user_bytes(plan.preload + plan.timed)
        rows["store.file.disk_bytes_per_user_byte"] = storage["disk_bytes"] / max(1, written)
    rows["store.file.fsyncs"] = fsyncs
    rows["bench.failed_frac"] = len(stream.failures) / (len(stream.ops) + stream.checks)
    bare = (bare_before + bare_rate()) / 2
    rows["bench.trace_overhead_frac"] = 1.0 - (len(stream.ops) / stream.wall) / bare
    rows["bench.calib_ms"] = calib_ms
    rows["bench.loadavg_start"] = loadavg
    rows["bench.nproc"] = os.cpu_count() or 0
    _write_trace(workload.name, seed, recorder, breakdown)
    samples = len(stream.ops)
    metrics = {
        name: (float(rows[name]), unit, samples) for name, unit in layers.PER_LAYER.items()
    }
    return PassResult(
        workload.name, seed, True, len(stream.ops) + stream.checks, stream.failures, metrics
    )


def _write_trace(name: str, seed: int, recorder, breakdown: list[dict[str, float]]) -> None:
    """out/trace-<workload>.json: the spans, and each op's layer breakdown."""
    payload = {
        "workload": name,
        "seed": seed,
        "orphan_spans": layers.orphan_count(recorder),
        "ops": breakdown,
        "spans": tracing.dump(recorder.spans),
    }
    (engine.OUT_DIR / f"trace-{name}.json").write_text(json.dumps(payload), encoding="utf-8")


def run_pass(name: str, seed: int, seconds: float, traced: bool) -> PassResult:
    workload = WORKLOADS[name]
    scratch = engine.scratch_dir(name)
    try:
        run = run_traced if traced else run_untraced
        result = run(workload, seed, seconds, scratch)
    finally:
        engine.remove_scratch(scratch)
    detail = engine.OUT_DIR / f"pass-{name}-{int(traced)}.json"
    detail.write_text(json.dumps(result.detail(), indent=1), encoding="utf-8")
    return result


def environment() -> dict:
    """Where and on what the numbers were taken (the rows' common header)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=False,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except OSError:
        commit = ""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "host": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "loadavg": os.getloadavg()[0],
        "filestore_policy": "unbuffered write() per WAL append; fsync on close and snapshot only",
    }
