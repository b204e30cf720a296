"""Distributed keyword directory: a Patricia trie over normalized
keywords, sharded onto the DHT (docs/protocol.md §17).

The directory answers *prefix* queries — "which indexed keywords start
with ``ja``?" — with messages proportional to the number of matching
keywords.  Each keyword's row also lists the objects carrying it, with
their keyword sets, so the planner in :mod:`repro.core.search` answers
a prefix query from the rows the resolution fetched.
"""

from repro.prefix.directory import KeywordDirectory, PrefixDirectoryShard, PrefixResolution

__all__ = ["KeywordDirectory", "PrefixDirectoryShard", "PrefixResolution"]
