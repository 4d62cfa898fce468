"""On-GPU forest storage formats.

This package is the heart of the paper's contribution (sections 4.1–4.3):

* :mod:`repro.formats.layout` — node-record layout with the variable-width
  attribute-index representation, and the interleaved level-major address
  scheme shared by both formats,
* :mod:`repro.formats.node_rearrange` — probability-based node
  rearrangement (children swapped so the hotter child is always left),
* :mod:`repro.formats.tree_rearrange` — similarity-based tree
  rearrangement (SimHash+LSH order, round-robin thread assignment),
* :mod:`repro.formats.reorg` — FIL's reorg format (the baseline),
* :mod:`repro.formats.encoding` — packed 8/16/32-bit node words
  (``encode_node_adaptive``) with optional f16/quantised float fields.

Tahoe's adaptive format, the composition of the three techniques, is
built by :func:`repro.core.convert_forest`, the engine's one conversion
pipeline.
"""

from repro.formats.encoding import (
    NodeEncoding,
    apply_encoding,
    make_encoding,
    pack_node_words,
    resolve_width_bits,
    unpack_node_words,
)
from repro.formats.layout import ForestLayout, NodeRecordLayout, attr_index_bytes
from repro.formats.node_rearrange import rearrange_forest_nodes, rearrange_nodes_by_probability
from repro.formats.partition import PartitionError, cached_partition, partition_trees
from repro.formats.reorg import build_reorg_layout
from repro.formats.tree_rearrange import round_robin_assignment, similarity_tree_order

__all__ = [
    "ForestLayout",
    "NodeEncoding",
    "NodeRecordLayout",
    "apply_encoding",
    "attr_index_bytes",
    "make_encoding",
    "pack_node_words",
    "resolve_width_bits",
    "unpack_node_words",
    "build_reorg_layout",
    "PartitionError",
    "cached_partition",
    "partition_trees",
    "rearrange_forest_nodes",
    "rearrange_nodes_by_probability",
    "round_robin_assignment",
    "similarity_tree_order",
]
