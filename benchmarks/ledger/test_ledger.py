"""Checks of the ledger itself (outside tier-1 ``testpaths``; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Workloads run at about 2 % of their ledger size, so the file takes well
under 30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import cli, engine, layers, tracing
from .oracle import Oracle
from .workloads import WORKLOADS, Deployment

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = 0.6  # --seconds for a ~2 % run


def _run(workload_name: str, seed: int, count: int):
    """One small set-up + stream, in process; returns (stream, deployment)."""
    workload = WORKLOADS[workload_name]
    plan = workload.plan(seed, count)
    deployment, _ = engine.set_up(workload, plan, engine.scratch_dir("test"))
    return engine.drive(deployment, plan.timed, workload.clients), deployment


def test_self_times_sum_to_the_root_even_with_overlapping_children():
    root = ["client.search", 0.0, 10.0, None, 0]
    rpc = ["net.aio.rpc_many", 1.0, 9.0, root, 0]
    # Two handlers of one batch overlap (2-6 and 4-8).
    first = ["dht.dolr.on_message", 2.0, 6.0, rpc, 0]
    second = ["dht.dolr.on_message", 4.0, 8.0, rpc, 0]
    scan = ["core.index.scan", 4.5, 5.5, second, 0]
    late = ["net.wire.encode_frame", 8.5, 12.0, rpc, 0]  # runs past its parent: clipped
    stray = ["net.wire.encode_frame", 20.0, 21.0, ["lost", 0.0, 0.0, None, 0], 0]
    spans = [scan, first, second, late, rpc, root, stray]
    selfs = tracing.self_times(spans)
    assert selfs[id(root)] == pytest.approx(2.0)
    assert selfs[id(rpc)] == pytest.approx(1.5)
    assert selfs[id(first)] == pytest.approx(3.0)  # 2-4 alone, 4-6 shared
    assert selfs[id(second)] == pytest.approx(2.5)
    assert selfs[id(scan)] == pytest.approx(0.5)
    assert selfs[id(late)] == pytest.approx(0.5)
    assert selfs[id(stray)] == 0.0
    assert sum(selfs.values()) == pytest.approx(root[tracing.END] - root[tracing.START])


def test_traced_layers_plus_untraced_equal_each_ops_wall():
    workload = WORKLOADS["mixed-sim"]
    plan = workload.plan(3, 60)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        deployment, _ = engine.set_up(workload, plan, engine.scratch_dir("test"))
        recorder.enabled = True
        stream = engine.drive(
            deployment, plan.timed, 1, before_op=lambda i: setattr(recorder, "op", i)
        )
        recorder.enabled = False
    rows = layers.op_breakdown(recorder, stream, tracing.self_times(recorder.spans))
    assert len(rows) == len(plan.timed)
    for row in rows:
        parts = sum(value for layer, value in row.items() if layer != "wall")
        assert parts == pytest.approx(row["wall"], rel=1e-9, abs=1e-6)
        assert row["untraced"] >= -1e-6
    names = {span[tracing.NAME] for span in recorder.spans}
    assert "sim.network.rpc" in names and "core.index.scan" in names
    assert not any(name.startswith("net.") for name in names), "no sockets on the simulator"
    # Wrappers are gone once the block exits.
    from repro.core.index import IndexShard

    assert not hasattr(IndexShard.scan, "__wrapped__")


class LossyClient:
    """Drops the first id of every non-empty search answer."""

    def __init__(self, client):
        self.client = client

    def search(self, keywords, options=None):
        result = self.client.search(keywords, options)
        lossy = type("Lossy", (), {})()
        lossy.results = lambda: result.results()[1:]
        lossy.complete = result.complete
        lossy.visits = result.visits
        return lossy

    def __getattr__(self, name):
        return getattr(self.client, name)


def test_oracle_counts_a_lossy_client_as_failures():
    workload = WORKLOADS["mixed-sim"]
    plan = workload.plan(5, 80)
    deployment, _ = engine.set_up(workload, plan, engine.scratch_dir("test"))
    honest = engine.drive(deployment, [op for op in plan.timed if op.kind == "search"], 1)
    engine.verify(plan, honest, deployment)
    assert honest.failures == []
    lossy = Deployment(
        LossyClient(deployment.client), deployment.service, deployment.transports, []
    )
    stream = engine.drive(lossy, honest.ops, 1)
    engine.verify(plan, stream, lossy)
    answered = sum(1 for outcome in honest.outcomes if outcome.results)
    assert answered > 0 and len(stream.failures) == answered


def test_oracle_rule():
    oracle = Oracle([("a", frozenset({"x", "y"})), ("b", frozenset({"x"})),
                     ("c", frozenset({"xa"}))])
    query = frozenset({"x"})
    assert oracle.check_search(query, None, ("a", "b"), True) is None
    assert oracle.check_search(query, 1, ("b",), False) is None
    assert "incomplete" in oracle.check_search(query, None, ("a",), False)
    assert "outside" in oracle.check_search(query, None, ("a", "b", "c"), True)
    assert "expected min" in oracle.check_search(query, 5, ("a",), False)
    assert oracle.check_prefix("x", 10, ("a", "b", "c"), True, ("x", "xa", "y")[:2]) is None
    assert "missing" in oracle.check_prefix("x", 10, ("a", "b"), True, ("x",))
    oracle.delete("a")
    assert oracle.matching(query) == {"b"}


@pytest.mark.parametrize("name", ["mixed-sim", "superset-fanout"])
def test_same_seed_same_stream_same_message_count(name):
    workload = WORKLOADS[name]
    count = workload.timed_ops(SMALL)
    first = [op.describe() for op in workload.plan(7, count).timed]
    assert first == [op.describe() for op in workload.plan(7, count).timed]
    assert first != [op.describe() for op in workload.plan(8, count).timed]
    totals = []
    for _ in range(2):
        stream, deployment = _run(name, 7, count)
        deployment.close()
        assert stream.failures == []
        totals.append(stream.messages)
    assert totals[0] == totals[1] > 0


def test_contract_names_match_what_a_run_prints():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layers.PER_LAYER
    for trace, declared in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        done = subprocess.run(
            [sys.executable, *CONTRACT["command"][1:], "--workload", "mixed-sim", "--seed", "2",
             "--seconds", str(SMALL), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        printed = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert printed["correct"] is True and printed["failed"] == 0
        assert list(printed["metrics"]) == [metric["name"] for metric in declared]
        for metric in declared:
            assert printed["metrics"][metric["name"]]["unit"] == metric["unit"]


def _ledger_file(path: Path, ops_per_s: float, workloads=None) -> str:
    """A ledger holding one untraced pass per workload, every metric 1.0
    except ``ops_per_s``."""
    names = workloads or [w["name"] for w in CONTRACT["workloads"]]
    rows = {metric["name"]: [1.0, metric["unit"], 1] for metric in CONTRACT["end_to_end"]}
    rows["ops_per_s"] = [ops_per_s, "1/s", 1]
    passes = [
        {"workload": name, "seed": 0, "traced": False, "attempted": 10, "failures": [],
         "rows": rows}
        for name in names
    ]
    path.write_text(cli.ledger_text({"schema": 2, "passes": passes}), encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["passes"] == passes
    return str(path)


def test_compare_judges_medians_and_counts_a_missing_row_as_a_regression(tmp_path, capsys):
    base = _ledger_file(tmp_path / "base.json", 100.0)
    same = _ledger_file(tmp_path / "same.json", 99.0)
    slow = _ledger_file(tmp_path / "slow.json", 50.0)
    partial = _ledger_file(tmp_path / "partial.json", 100.0, workloads=["mixed-sim"])
    assert cli.main(["compare", base, same]) == 0
    assert cli.main(["compare", base, slow]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # One slow run among three does not move the median.
    assert cli.main(["compare", base, ",".join([same, slow, same])]) == 0
    assert cli.main(["compare", base, partial]) == 1
    assert "MISSING" in capsys.readouterr().out
