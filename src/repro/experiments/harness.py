"""Shared infrastructure for experiment runners.

``ExperimentResult`` is the uniform return type: named rows of plain
scalars, a parameter record, and free-form notes, renderable as the
aligned text table the benchmark harness prints.  ``default_corpus``
memoizes corpus generation — several figures share the same corpus and
benchmarks re-enter runners repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.workload.corpus import SyntheticCorpus

__all__ = ["ExperimentResult", "default_corpus", "hypercube_loads"]

_CORPUS_CACHE: dict[tuple[int, int], SyntheticCorpus] = {}


def default_corpus(num_objects: int, seed: int = 0) -> SyntheticCorpus:
    """A memoized synthetic corpus (shared across experiment runs)."""
    key = (num_objects, seed)
    corpus = _CORPUS_CACHE.get(key)
    if corpus is None:
        corpus = SyntheticCorpus.generate(num_objects=num_objects, seed=seed)
        _CORPUS_CACHE[key] = corpus
    return corpus


def hypercube_loads(
    keyword_sets: list[frozenset[str]], dimension: int, *, salt: str = "h"
) -> dict[int, int]:
    """Static index placement: objects per hypercube node under F_h.

    The load experiments need only where each object lands, not the
    message exchanges, so this skips the network entirely while using
    the very same mapping the protocol stack uses.
    """
    from repro.core.keywords import KeywordHasher, KeywordSetMapper
    from repro.hypercube.hypercube import Hypercube

    mapper = KeywordSetMapper(Hypercube(dimension), KeywordHasher(dimension, salt=salt))
    loads = dict.fromkeys(range(1 << dimension), 0)
    for keywords in keyword_sets:
        loads[mapper.node_for(keywords)] += 1
    return loads


def build_loaded_index(
    corpus: SyntheticCorpus,
    dimension: int,
    *,
    num_dht_nodes: int = 64,
    dht_bits: int = 32,
    seed: int = 0,
    cache_capacity: int = 0,
    cache_policy: str = "fifo",
):
    """A Chord-backed hypercube index bulk-loaded with ``corpus``.

    Route memoization is on (membership is static in the query
    experiments); entries are loaded out-of-band, so the construction
    time is dominated by hashing, not routing.
    """
    from repro.core.cache import FifoQueryCache, LruQueryCache
    from repro.core.index import HypercubeIndex
    from repro.dht.chord import ChordNetwork
    from repro.hypercube.hypercube import Hypercube

    factory = {"fifo": FifoQueryCache, "lru": LruQueryCache}[cache_policy]
    dolr = ChordNetwork.build(bits=dht_bits, num_nodes=num_dht_nodes, seed=seed)
    index = HypercubeIndex(
        Hypercube(dimension),
        dolr,
        cache_capacity=cache_capacity,
        cache_factory=factory,
    )
    index.mapping.memoize_routes()
    index.bulk_load((record.object_id, record.keywords) for record in corpus.records)
    return index


@dataclass
class ExperimentResult:
    """Uniform result record for every experiment runner."""

    experiment: str
    description: str
    parameters: dict[str, Any]
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)

    def columns(self) -> list[str]:
        """Column names, in first-appearance order across all rows."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for name in row:
                seen.setdefault(name)
        return list(seen)

    def table(self, *, max_rows: int | None = None) -> str:
        """The rows as an aligned text table (the paper's series)."""
        columns = self.columns()
        if not columns:
            return "(no rows)"
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[_format_cell(row.get(name)) for name in columns] for row in shown]
        widths = [
            max(len(columns[i]), max((len(row[i]) for row in cells), default=0))
            for i in range(len(columns))
        ]
        lines = [
            "  ".join(name.ljust(width) for name, width in zip(columns, widths)),
            "  ".join("-" * width for width in widths),
        ]
        lines.extend(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells
        )
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def render(self) -> str:
        """Header + parameters + table + notes, ready to print."""
        parts = [
            f"== {self.experiment}: {self.description}",
            "parameters: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items())),
            self.table(),
        ]
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def series(self, group_by: str, x: str, y: str) -> dict[Any, list[tuple[Any, Any]]]:
        """Pivot rows into {group value: [(x, y), ...]} — one line per
        group, the shape the paper's figures plot."""
        lines: dict[Any, list[tuple[Any, Any]]] = {}
        for row in self.rows:
            lines.setdefault(row[group_by], []).append((row[x], row[y]))
        return lines

    def to_csv(self) -> str:
        """The rows as CSV text (header from :meth:`columns`), for
        external plotting tools."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns(), extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({name: row.get(name, "") for name in self.columns()})
        return buffer.getvalue()

    def to_json(self) -> str:
        """The full record (parameters, rows, notes) as JSON."""
        import json

        return json.dumps(
            {
                "experiment": self.experiment,
                "description": self.description,
                "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
                "rows": [{k: _jsonable(v) for k, v in row.items()} for row in self.rows],
                "notes": self.notes,
            },
            indent=2,
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    return value


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
