"""Prefix keyword search: the distributed directory and its planner.

Four layers.  The trie record encoding is pure math; the directory on
the simulator must resolve every prefix to exactly the oracle's
keyword set with message counts that track *matches* (never vocabulary
size); the planner must answer from the resolved rows, ranked by
(specificity, first matched keyword, id) and cut to the threshold,
which a posting-list oracle checks on random libraries; and the same
recall contract must
hold replicated, over loopback TCP, across join/leave/crash churn, and
through a full durable restart.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SearchOptions, ServiceConfig
from repro.core.keywords import normalize_keyword, normalize_prefix
from repro.core.search import FoundObject, TraversalOrder
from repro.core.service import KeywordSearchService
from repro.load.mix import HarvestPrefixMix
from repro.net.cluster import LocalCluster
from repro.prefix.trie import (
    common_prefix_len,
    decode_edges,
    decode_records,
    edge_record,
    prefix_of,
    record_key,
    word_record,
)
from repro.store import FileStore
from repro.workload.corpus import SyntheticCorpus

CORPUS = [
    ("jazz.mp3", {"jazz", "mp3"}),
    ("jam.mp3", {"jam", "mp3"}),
    ("java.pdf", {"java", "code"}),
    ("jazzy.flac", {"jazzy", "music"}),
    ("rock.mp3", {"rock", "mp3"}),
    ("mpeg.bin", {"mpeg", "video"}),
]

CONFIG = ServiceConfig(dimension=5, num_dht_nodes=10, seed=7, prefix_directory=True)
REPLICATED = ServiceConfig(
    dimension=5, num_dht_nodes=10, seed=7, prefix_directory=True, index_replicas=2
)

#: Every prefix of every corpus keyword, plus a few misses.
PREFIXES = sorted(
    {
        keyword[:length]
        for _, kws in CORPUS
        for keyword in kws
        for length in range(1, len(keyword) + 1)
    }
) + ["z", "jab", "mp3x"]


def publish_corpus(service) -> None:
    for object_id, keywords in CORPUS:
        service.publish(object_id, keywords)


def keyword_oracle(prefix: str) -> set[str]:
    return {k for _, kws in CORPUS for k in kws if k.startswith(prefix)}


def object_oracle(prefix: str) -> set[str]:
    return {
        object_id
        for object_id, kws in CORPUS
        if any(k.startswith(prefix) for k in kws)
    }


def assert_full_recall(service) -> None:
    """Every prefix resolves and searches to exactly the oracle sets."""
    for prefix in PREFIXES:
        resolution = service.directory.resolve(prefix)
        assert set(resolution.keywords) == keyword_oracle(prefix), prefix
        assert resolution.complete
        result = service.prefix_search(prefix) if keyword_oracle(prefix) else None
        if result is not None:
            assert set(result.results()) == object_oracle(prefix), prefix
            assert result.complete


class TestTrieRecords:
    def test_record_round_trip(self):
        assert prefix_of(record_key("jaz")) == "jaz"
        edges, objects, bare = decode_records(
            [
                edge_record("zz"),
                edge_record("m"),
                word_record("b.pdf", {"jaz", "pdf"}),
                word_record("a.pdf", {"jaz"}),
            ]
        )
        assert edges == {"m": ("m",), "z": ("zz",)}
        assert set(objects) == {
            FoundObject("a.pdf", frozenset({"jaz"})),
            FoundObject("b.pdf", frozenset({"jaz", "pdf"})),
        }
        assert bare == ()

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(),
        st.sets(st.text(min_size=1), min_size=1, max_size=5),
    )
    def test_word_records_round_trip_any_id_and_keyword_set(self, object_id, raw):
        keywords = set()
        for keyword in raw:
            try:
                keywords.add(normalize_keyword(keyword))
            except ValueError:
                pass  # empty after normalization: not a keyword
        if not keywords:
            return
        for tricky in (object_id, "\u2063" + object_id + "\u2064\u2063", "\u2064"):
            _, objects, bare = decode_records([word_record(tricky, keywords)])
            assert objects == (FoundObject(tricky, frozenset(keywords)),)
            assert bare == ()

    def test_word_record_rejects_unnormalized_keywords(self):
        for keywords in (set(), {""}, {"ja\u2063zz"}, {"ja\u2064zz"}):
            with pytest.raises(ValueError, match="normalized"):
                word_record("a.pdf", keywords)

    def test_bare_word_records_are_reported(self):
        # A word record without a keyword set (the older format) still
        # makes its node terminal, and is reported rather than dropped.
        edges, objects, bare = decode_records(["w:old.pdf", word_record("new.pdf", {"jaz"})])
        assert (edges, bare) == ({}, ("old.pdf",))
        assert [found.object_id for found in objects] == ["new.pdf"]

    def test_duplicate_runs_per_letter_are_kept(self):
        # A reader racing an edge split may see both the old and the new
        # run; both must survive decoding so the reader can follow both.
        assert decode_edges([edge_record("zz"), edge_record("z")]) == {"z": ("z", "zz")}

    def test_common_prefix_len(self):
        assert common_prefix_len("jazz", "jam") == 2
        assert common_prefix_len("jazz", "jazz") == 4
        assert common_prefix_len("jazz", "rock") == 0
        assert common_prefix_len("ja", "jazz") == 2


class TestDirectoryResolution:
    def test_full_recall_on_simulator(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        assert_full_recall(service)

    def test_messages_track_matches_not_vocabulary(self):
        # Same matching set, 10x the unrelated vocabulary: resolution
        # cost for the prefix must not move.  (Fillers share no prefix
        # with the probe, so only the root sees them.)
        costs = []
        for fillers in (30, 300):
            service = KeywordSearchService.create(CONFIG)
            publish_corpus(service)
            for i in range(fillers):
                service.publish(f"filler-{i}.bin", {f"k{i:04d}", "bulk"})
            resolution = service.directory.resolve("ja")
            assert set(resolution.keywords) == {"jam", "java", "jazz", "jazzy"}
            costs.append(resolution.messages)
        assert costs[0] == costs[1]

    def test_messages_bounded_by_matches_and_depth(self):
        # Patricia bound: <= len(prefix) on-path fetches, and the
        # matching subtree has fewer internal nodes than leaves.
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        for prefix in PREFIXES:
            resolution = service.directory.resolve(prefix)
            matches = len(resolution.keywords)
            assert resolution.messages <= len(prefix) + 2 * matches + 1, prefix

    def test_resolution_is_deterministic_and_bfs_ordered(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        first = service.directory.resolve("ja")
        second = service.directory.resolve("ja")
        assert first == second
        # BFS: shorter completions surface before longer ones.
        keywords = list(first.keywords)
        assert keywords.index("jazz") < keywords.index("jazzy")

    def test_expansion_limit_truncates(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        resolution = service.directory.resolve("ja", limit=2)
        assert len(resolution.keywords) == 2
        assert resolution.truncated
        assert not resolution.complete

    def test_unpublish_prunes_the_trie(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        for object_id, _ in CORPUS:
            holder = next(h for (o, h) in service._published if o == object_id)
            service.unpublish(object_id, holder=holder)
        assert service.directory.resolve("j").keywords == ()
        # Not just unreachable: every directory row is physically gone.
        for address in service.dolr.addresses():
            shard = service.dolr.node(address).application("hindex")
            assert not [k for k in shard.tables if k[0].startswith("pfx/")]

    def test_partial_unpublish_keeps_other_holders(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        holder_a, holder_b = service.dolr.addresses()[:2]
        service.publish("shared.bin", {"jaguar"}, holder=holder_a)
        service.publish("shared.bin", {"jaguar"}, holder=holder_b)
        service.unpublish("shared.bin", holder=holder_a)
        # A copy remains: the keyword must still resolve.
        assert "jaguar" in service.directory.resolve("jag").keywords
        service.unpublish("shared.bin", holder=holder_b)
        assert "jaguar" not in service.directory.resolve("jag").keywords


class TestPrefixPlanner:
    def test_single_keyword_parity_with_superset_search(self):
        # A prefix matching exactly one keyword must answer exactly like
        # the superset search for that keyword — same objects, same
        # extra-keyword ranking, same completeness.
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        via_prefix = service.prefix_search("rock")
        via_superset = service.superset_search({"rock"})
        assert via_prefix.results() == via_superset.results()
        assert via_prefix.complete == via_superset.complete

    def test_merges_dedup_across_expansions(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        service.publish("both.bin", {"jazz", "jam"})
        result = service.prefix_search("ja")
        assert sorted(result.results()).count("both.bin") == 1

    def test_threshold_is_shared_across_expansions(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        service.publish("both.bin", {"jazz", "jam"})
        service.publish("deep.bin", {"jazz", "live", "piano"})
        full = service.prefix_search("ja")
        # Ranked by (extra keywords, first matched keyword carried in
        # jam < java < jazz < jazzy, object id).
        assert full.results() == (
            "both.bin", "jam.mp3", "java.pdf", "jazz.mp3", "jazzy.flac", "deep.bin"
        )
        assert full.complete
        result = service.prefix_search("ja", threshold=2)
        assert result.results() == ("both.bin", "jam.mp3")
        assert not result.complete  # matches were left behind
        bottom_up = service.prefix_search("ja", threshold=2, order=TraversalOrder.BOTTOM_UP)
        assert bottom_up.results() == ("deep.bin", "both.bin")
        assert not bottom_up.complete

    def test_max_expansions_budget(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        result = service.prefix_search("ja", max_expansions=1)
        assert len(result.matched_keywords) == 1
        assert not result.complete

    def test_prefix_is_normalized(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        assert (
            service.prefix_search("  JA ").results()
            == service.prefix_search("ja").results()
        )

    def test_search_options_dispatch(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        options = SearchOptions(prefix=True, max_expansions=8)
        assert set(service.search("ja", options).results()) == object_oracle("ja")
        assert set(service.search(["ja"], options).results()) == object_oracle("ja")

    def test_requires_directory(self):
        service = KeywordSearchService.create(
            ServiceConfig(dimension=5, num_dht_nodes=10, seed=7)
        )
        with pytest.raises(RuntimeError, match="prefix_directory"):
            service.prefix_search("ja")

    def test_trace_carries_resolve_and_expand_events(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        result = service.prefix_search("ja", trace=True)
        assert result.trace is not None
        (resolve_event,) = result.trace.events_of("prefix_resolve")
        assert resolve_event.detail["matched"] == sorted(result.matched_keywords)
        assert resolve_event.detail["candidates"] == 4
        # The answer comes from the resolved rows: nothing is expanded,
        # and every message is half of a directory fetch.
        assert result.trace.events_of("prefix_expand") == ()
        assert result.expanded_keywords == ()
        assert result.messages == 2 * result.directory_messages  # request + reply
        # Tracing never changes the answer.
        assert result.results() == service.prefix_search("ja").results()

    def test_bare_word_record_makes_the_answer_incomplete(self):
        service = KeywordSearchService.create(CONFIG)
        publish_corpus(service)
        directory = service.directory
        for namespace in directory.namespaces:
            directory._put(namespace, "jam", ["w:legacy.bin"], service.dolr.any_address())
        resolution = directory.resolve("ja")
        assert resolution.bare_keywords == ("jam",)
        assert not resolution.complete
        result = service.prefix_search("ja")
        assert not result.complete
        assert "legacy.bin" not in result.results()
        assert set(result.results()) == object_oracle("ja")


VOCABULARY = ["jam", "jazz", "jazzy", "java", "jade", "mp3", "mpeg", "music", "rock", "rocket"]
PROBES = sorted({word[:length] for word in VOCABULARY for length in (1, 2, 3)}) + ["x"]

libraries = st.dictionaries(
    keys=st.integers(min_value=0, max_value=30).map(lambda i: f"obj-{i}"),
    values=st.sets(st.sampled_from(VOCABULARY), min_size=1, max_size=4).map(frozenset),
    min_size=1,
    max_size=10,
)
prefix_queries = st.lists(
    st.tuples(
        st.sampled_from(PROBES),
        st.none() | st.integers(min_value=1, max_value=8),
        st.none() | st.integers(min_value=1, max_value=4),
        st.sampled_from(list(TraversalOrder)),
    ),
    min_size=1,
    max_size=6,
)


class TestPrefixAnswerProperties:
    """Every prefix answer, judged against a posting-list oracle over
    the keywords the directory reported as matched."""

    @settings(max_examples=25, deadline=None)
    @given(libraries, prefix_queries)
    def test_answers_agree_with_the_oracle(self, library, queries):
        service = KeywordSearchService.create(CONFIG)
        for object_id, keywords in sorted(library.items()):
            service.publish(object_id, keywords)
        for prefix, threshold, max_expansions, order in queries:
            result = service.prefix_search(
                prefix, threshold, order=order, max_expansions=max_expansions
            )
            matched = set(result.matched_keywords)
            vocabulary = {k for kws in library.values() for k in kws if k.startswith(prefix)}
            assert matched <= vocabulary
            truth = {object_id for object_id, kws in library.items() if kws & matched}
            answer = result.results()
            assert len(set(answer)) == len(answer)
            assert set(answer) <= truth
            if result.complete:
                assert matched == vocabulary
                assert set(answer) == truth
            if order is not TraversalOrder.BOTTOM_UP:
                specificity = [len(library[object_id]) - 1 for object_id in answer]
                assert specificity == sorted(specificity)
            # The exact rule: rank the truth by (specificity, position of
            # the first matched keyword carried, id), cut to the threshold.
            ordered = sorted(matched)
            sign = -1 if order is TraversalOrder.BOTTOM_UP else 1

            def rank(object_id, kws=library):
                first = min(ordered.index(k) for k in kws[object_id] if k in matched)
                return (sign * (len(kws[object_id]) - 1), first, object_id)

            assert list(answer) == sorted(truth, key=rank)[:threshold]
            trimmed = threshold is not None and len(truth) > threshold
            assert result.complete == (matched == vocabulary and not trimmed)


class TestReplicatedDirectory:
    def test_full_recall_replicated(self):
        service = KeywordSearchService.create(REPLICATED)
        publish_corpus(service)
        assert_full_recall(service)

    def test_resolution_fails_over_past_a_crashed_host(self):
        with LocalCluster(REPLICATED, membership=True) as cluster:
            publish_corpus(cluster.service)
            baseline = {p: set(cluster.service.directory.resolve(p).keywords) for p in PREFIXES}
            victim = cluster.addresses()[3]
            cluster.crash_node(victim)
            # Before any repair: reads fail over to the other replica's
            # trie, so every prefix still resolves exactly.
            for prefix in PREFIXES:
                resolution = cluster.service.directory.resolve(prefix)
                assert set(resolution.keywords) == baseline[prefix], prefix

    def test_death_repair_restores_directory_rows(self):
        with LocalCluster(REPLICATED, membership=True) as cluster:
            publish_corpus(cluster.service)
            baseline = {p: set(cluster.service.directory.resolve(p).keywords) for p in PREFIXES}
            victim = cluster.addresses()[3]
            cluster.declare_crashed(victim)
            assert victim not in cluster.addresses()
            for prefix in PREFIXES:
                resolution = cluster.service.directory.resolve(prefix)
                assert set(resolution.keywords) == baseline[prefix], prefix
                assert resolution.complete, prefix


class TestClusterPrefixSearch:
    def test_full_recall_over_loopback_tcp(self):
        with LocalCluster(CONFIG) as cluster:
            publish_corpus(cluster.service)
            with cluster.client() as client:
                for prefix in ("j", "ja", "mp", "mu", "rock"):
                    result = client.search(prefix, SearchOptions(prefix=True))
                    assert set(result.results()) == object_oracle(prefix), prefix

    def test_join_and_leave_keep_recall(self):
        with LocalCluster(CONFIG, membership=True) as cluster:
            publish_corpus(cluster.service)
            baseline = {p: object_oracle(p) for p in ("j", "ja", "mp", "rock")}

            def check():
                for prefix, expected in baseline.items():
                    result = cluster.service.prefix_search(prefix)
                    assert set(result.results()) == expected, prefix
                    assert result.complete, prefix

            addresses = cluster.addresses()
            joiner = max(addresses, key=lambda a: a) - 1
            assert joiner not in addresses
            cluster.join_node(joiner)
            check()
            cluster.leave_node(joiner)
            check()
            victim = cluster.addresses()[0]
            cluster.leave_node(victim)
            check()


class TestDurability:
    def test_directory_survives_restart(self, tmp_path):
        def factory(address: int) -> FileStore:
            return FileStore(tmp_path / f"node-{address}")

        service = KeywordSearchService.create(CONFIG, store_factory=factory)
        publish_corpus(service)
        expected = {p: set(service.directory.resolve(p).keywords) for p in PREFIXES}
        service.close_stores()

        reborn = KeywordSearchService.create(CONFIG, store_factory=factory)
        # No re-publish: the trie must come back from the WALs alone.
        for prefix in PREFIXES:
            assert set(reborn.directory.resolve(prefix).keywords) == expected[prefix]
        assert set(reborn.prefix_search("ja").results()) == object_oracle("ja")
        reborn.close_stores()


class TestHarvestPrefixMix:
    def test_deterministic_and_prefix_shaped(self):
        corpus = SyntheticCorpus.generate(num_objects=80, vocabulary_size=64, seed=3)
        first = HarvestPrefixMix.from_corpus(corpus, seed=5)
        second = HarvestPrefixMix.from_corpus(corpus, seed=5)
        draws = [first.next_prefix() for _ in range(50)]
        assert draws == [second.next_prefix() for _ in range(50)]
        vocabulary = corpus.vocabulary_used()
        for prefix in draws:
            assert any(word.startswith(prefix) for word in vocabulary)

    def test_discovery_grows_the_pool(self):
        corpus = SyntheticCorpus.generate(num_objects=80, vocabulary_size=64, seed=3)
        mix = HarvestPrefixMix.from_corpus(corpus, discovered=1, seed=5)
        frequencies = corpus.keyword_frequencies()
        ranked = sorted(frequencies, key=lambda w: (-frequencies[w], w))
        # Only the single discovered word can be probed.
        for _ in range(20):
            assert ranked[0].startswith(mix.next_prefix())
        assert mix.discover(10) == 11
        assert mix.discovered == 11

    def test_next_query_wraps_single_prefix(self):
        corpus = SyntheticCorpus.generate(num_objects=80, vocabulary_size=64, seed=3)
        mix = HarvestPrefixMix.from_corpus(corpus, seed=5)
        query = mix.next_query()
        assert isinstance(query, frozenset) and len(query) == 1

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="vocabulary"):
            HarvestPrefixMix([])
        with pytest.raises(ValueError, match="min_length"):
            HarvestPrefixMix(["word"], min_length=0)


class TestNormalizationAgreement:
    def test_prefix_and_keyword_pipelines_agree(self):
        # The satellite contract: a prefix of a keyword's *raw* form,
        # canonicalized, must be a prefix of the canonicalized keyword.
        service = KeywordSearchService.create(CONFIG)
        service.publish("unicode.bin", {"Straße"})  # casefolds to 'strasse'
        assert normalize_prefix("STRAS") == "stras"
        assert set(service.prefix_search("STRAS").results()) == {"unicode.bin"}
        assert set(service.prefix_search("straß").results()) == {"unicode.bin"}
