"""The :class:`LayoutCache` — converted-forest reuse across engines.

The online conversion pipeline (probability fetch, node rearrangement,
similarity detection, format conversion, GPU copy) is deterministic in
``(forest, config)``: two engines built from the same forest with the
same knobs produce byte-identical layouts.  Serving builds *many*
engines from one forest — every replica of a
:class:`~repro.serving.server.TahoeServer` pool, plus reconstruction on
restart — so the cache keys finished :class:`ForestLayout` objects by
``(forest fingerprint, spec name, conversion config)`` and hands them
back without re-running the pipeline.  A hit costs one content hash of
the forest; :class:`~repro.core.base.ConversionStats` records it as
``cache_hit=True`` with only ``t_cache_lookup`` non-zero.

Layouts are immutable once built (engines only annotate
``layout.metadata`` with measurements like the COA probe, which are
themselves layout-deterministic), so sharing one object between
replicas is safe: the pool converts once and every other replica adopts
the finished layout.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.formats.layout import ForestLayout
    from repro.gpusim.specs import GPUSpec
    from repro.trees.forest import Forest

__all__ = ["LayoutCache"]


class LayoutCache:
    """LRU cache of converted forest layouts.

    Args:
        capacity: retained layouts; the least recently used entry is
            evicted beyond this.  Serving pools typically need one entry
            per live (forest, config) pair, so the default is generous.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, ForestLayout]" = OrderedDict()
        self._pinned: set[tuple] = set()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(forest: "Forest", spec: "GPUSpec", conversion_key: tuple) -> tuple:
        """Cache key: content fingerprint + target GPU + conversion knobs."""
        return (forest.fingerprint(), spec.name, conversion_key)

    def get(self, key: tuple) -> "ForestLayout | None":
        layout = self._entries.get(key)
        if layout is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return layout

    def put(self, key: tuple, layout: "ForestLayout") -> None:
        self._entries[key] = layout
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k in self._entries if k not in self._pinned), None
            )
            if victim is None:
                break  # everything pinned: tolerate temporary overflow
            del self._entries[victim]

    def pin(self, key: tuple) -> None:
        """Protect ``key`` from eviction (hot-swap keeps the served
        version pinned while a new version stages through the cache)."""
        self._pinned.add(key)

    def unpin(self, key: tuple) -> None:
        self._pinned.discard(key)

    def pinned(self, key: tuple) -> bool:
        return key in self._pinned

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready counters for reports and benchmarks."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "pinned": len(self._pinned),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._pinned.clear()
        self.hits = 0
        self.misses = 0
