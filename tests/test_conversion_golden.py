"""Conversion golden: layouts of the fifteen pinned fig5 forests.

Conversion must be bit-identical across rewrites of its internals.  This
module converts every forest committed under ``benchmarks/.cache/`` (the
fig5 set) and hashes what conversion decides: the tree order, every
layout tree's ``left``/``right``/``flip``/``default_left``, the node
addresses, the level table, the allocation size and the node-record
label.  The pinned digests were computed with the per-tree conversion
pipeline (one Python walk per tree, path and token).

Configurations covered: the paper defaults (``TahoeConfig()``), the
fixed-width record (``variable_width=False``), FIL's reorg layout, and
on HOCK and Higgs a grid of similarity parameters that reaches two-node
tokens, tokens longer than most paths, and ``l_hash`` below and above
one SHA-1 block (counter-mode expansion).

Run ``python tests/test_conversion_golden.py`` to print the digests of
the current implementation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import TahoeConfig
from repro.core.engine import convert_forest
from repro.formats.reorg import build_reorg_layout
from repro.trees.io import forest_from_dict

CACHE = Path(__file__).resolve().parent.parent / "benchmarks" / ".cache"

#: The fifteen fig5 forests.
FORESTS = (
    "letter-s7-k150-n6000",
    "SVHN-s7-k32-n6000",
    "gisette-s7-k20-n6000",
    "cifar10-s7-k10-n6000",
    "aloi-s7-k300-n6000",
    "covtype-s7-k500-n6000",
    "SUSY-s7-k300-n6000",
    "Higgs-s7-k300-n6000",
    "hepmass-s7-k300-n6000",
    "ijcnn1-s7-k10-n6000",
    "phishing-s7-k15-n6000",
    "HOCK-s7-k8-n6000",
    "year-s7-k150-n6000",
    "allstate-s7-k300-n6000",
    "cup98-s7-k60-n6000",
)

#: Similarity-parameter grid run on HOCK and Higgs: (t_nodes, l_hash, m_chunks).
GRID = tuple(
    (t, l_hash, m_chunks)
    for t in (2, 6, 8)
    for l_hash, m_chunks in ((32, 8), (256, 32))
)

PINNED = {
    "default": "0883a202082f3a05898cfc599cf531fbef0e0332c62f01398a883798f793a10d",
    "fixed_width": "8fe14ffc6489b84017c89b7931a1cd2e3725a37d38003ed6b75a448b380e76b8",
    "reorg": "ec197f66cd025b1b46eecef5fb338d502f3bdc86091f061370ec83c384248d03",
    "grid": "02d4f0f5ec8635642cf3c541abe5fb23b18479c1eebf4e97faa9a702dc3fd2d9",
}


def _forest(name: str):
    return forest_from_dict(json.loads((CACHE / f"{name}.json").read_text()))


def _update(h, layout) -> None:
    h.update(np.asarray(layout.tree_order, dtype="<i8").tobytes())
    for tree, address in zip(layout.forest.trees, layout.node_address):
        for arr, dtype in (
            (tree.left, "<i4"),
            (tree.right, "<i4"),
            (tree.flip, "?"),
            (tree.default_left, "?"),
            (address, "<i8"),
        ):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(np.ascontiguousarray(layout.level_base, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(layout.level_slots, dtype="<i8").tobytes())
    h.update(f"{layout.total_bytes}|{layout.record.encoding_label}".encode())


def digest(kind: str) -> str:
    """sha256 over the layouts of one configuration family."""
    h = hashlib.sha256()
    if kind == "grid":
        for name in ("HOCK-s7-k8-n6000", "Higgs-s7-k300-n6000"):
            forest = _forest(name)
            for t_nodes, l_hash, m_chunks in GRID:
                config = TahoeConfig(t_nodes=t_nodes, l_hash=l_hash, m_chunks=m_chunks)
                _update(h, convert_forest(forest, config)[0])
        return h.hexdigest()
    for name in FORESTS:
        forest = _forest(name)
        if kind == "reorg":
            layout = build_reorg_layout(forest)
        else:
            config = TahoeConfig(variable_width=kind != "fixed_width")
            layout = convert_forest(forest, config)[0]
        _update(h, layout)
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_conversion_matches_pinned_digest(kind):
    assert digest(kind) == PINNED[kind]


if __name__ == "__main__":
    for kind in sorted(PINNED):
        print(f'    "{kind}": "{digest(kind)}",')
