"""Dynamic multigraph storage substrate.

The data graph in Mnemonic is a directed, labelled *multigraph*: several
edge instances may connect the same pair of endpoints (e.g. repeated
NetFlow events) and each instance carries its own identity (``edge_id``),
label, and timestamp.  This package provides:

* :class:`repro.graph.adjacency.DynamicGraph` — the columnar edge store
  (edge columns plus pooled label-partition arenas) with amortised O(1)
  insertion, order-preserving batch deletion, and edge-id recycling (the
  mechanism behind the paper's non-monotonic index size).
* :class:`repro.graph.attributes.AttributeStore` — per-vertex / per-edge
  attribute columns addressed by id.
* :class:`repro.graph.stats.PlaceholderStats` — placeholder / recycling
  counters (Figure 17 experiments).
"""

from repro.graph.adjacency import DynamicGraph
from repro.graph.attributes import AttributeStore
from repro.graph.edge import EdgeRecord, Endpoint
from repro.graph.stats import PlaceholderStats

__all__ = [
    "DynamicGraph",
    "AttributeStore",
    "EdgeRecord",
    "Endpoint",
    "PlaceholderStats",
]
