"""Tests for the cardinality estimator, latency analysis, and result export."""

import json

import pytest

from repro.analysis.estimate import estimate_matching_count
from repro.analysis.latency import (
    critical_path_latency,
    mean_speedup,
    sequential_latency,
    speedup,
)
from repro.core.index import HypercubeIndex
from repro.core.search import SuperSetSearch
from repro.dht.chord import ChordNetwork
from repro.experiments.harness import ExperimentResult
from repro.hypercube.hypercube import Hypercube
from repro.sim.latency import ConstantLatency, LogNormalLatency
from repro.workload.corpus import SyntheticCorpus


@pytest.fixture(scope="module")
def loaded():
    ring = ChordNetwork.build(bits=16, num_nodes=24, seed=77)
    index = HypercubeIndex(Hypercube(9), ring)
    corpus = SyntheticCorpus.generate(num_objects=1_500, seed=77)
    index.bulk_load((record.object_id, record.keywords) for record in corpus)
    index.mapping.memoize_routes()
    return corpus, index


class TestEstimator:
    def test_exact_when_subcube_small(self, loaded):
        corpus, index = loaded
        record = max(corpus.records, key=lambda r: r.keyword_count)
        query = frozenset(sorted(record.keywords)[:6])
        estimate = estimate_matching_count(index, query, sample_nodes=1024, seed=0)
        assert estimate.exact
        assert estimate.stderr == 0.0
        assert estimate.estimate == len(corpus.matching(query))

    def test_confidence_interval_covers_truth(self, loaded):
        corpus, index = loaded
        keyword, true_count = corpus.keyword_frequencies().most_common(1)[0]
        hits = 0
        for seed in range(8):
            estimate = estimate_matching_count(
                index, {keyword}, sample_nodes=64, seed=seed
            )
            hits += estimate.low <= true_count <= estimate.high
        assert hits >= 6  # ~95% CI; allow sampling luck

    def test_zero_for_no_matches(self, loaded):
        _, index = loaded
        estimate = estimate_matching_count(index, {"zz-none"}, sample_nodes=16, seed=1)
        assert estimate.estimate == 0.0

    def test_cost_bounded_by_sample(self, loaded):
        _, index = loaded
        with index.dolr.network.trace() as trace:
            estimate_matching_count(index, {"anything"}, sample_nodes=10, seed=2)
        assert trace.request_count <= 10

    def test_validation(self, loaded):
        _, index = loaded
        with pytest.raises(ValueError):
            estimate_matching_count(index, {"x"}, sample_nodes=0)


class TestLatencyAnalysis:
    @pytest.fixture(scope="class")
    def trace(self, loaded):
        corpus, index = loaded
        keyword, _ = corpus.keyword_frequencies().most_common(1)[0]
        return SuperSetSearch(index).run({keyword})

    def test_constant_links_speedup_is_visits_over_levels(self, trace):
        model = ConstantLatency(1.0)
        remote = [v for v in trace.visits if v.physical != trace.root_physical]
        levels = {v.depth for v in remote}
        assert sequential_latency(trace, model) == pytest.approx(2.0 * len(remote))
        assert critical_path_latency(trace, model) == pytest.approx(2.0 * len(levels))

    def test_parallel_never_slower(self, trace):
        model = LogNormalLatency(median_ms=50, sigma=0.6, seed=3)
        assert speedup(trace, model) >= 1.0

    def test_mean_speedup(self, trace):
        model = ConstantLatency(1.0)
        assert mean_speedup([trace, trace], model) == pytest.approx(
            speedup(trace, model)
        )
        with pytest.raises(ValueError):
            mean_speedup([], model)


class TestResultExport:
    def make_result(self):
        return ExperimentResult(
            "demo",
            "test",
            {"dims": (1, 2), "name": "x"},
            [{"a": 1, "b": 0.5}, {"a": 2, "c": "text"}],
            notes=["note"],
        )

    def test_csv_round_trip(self):
        import csv
        import io

        text = self.make_result().to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["a"] == "1"
        assert rows[1]["c"] == "text"
        assert rows[0]["c"] == ""

    def test_json_structure(self):
        payload = json.loads(self.make_result().to_json())
        assert payload["experiment"] == "demo"
        assert payload["parameters"]["dims"] == [1, 2]
        assert payload["rows"][0]["b"] == 0.5
        assert payload["notes"] == ["note"]
