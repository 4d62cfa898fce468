"""Packed node encodings (paper section 4.3, ``encode_node_adaptive``).

Tahoe stores each node as one *just-wide-enough* machine word — char,
short, or int — that bit-packs the attribute index together with the
three structural flags the traversal kernel needs:

======  ==========  ====================  =========================
word    fid bits    flag bits (low→high)  fid capacity
======  ==========  ====================  =========================
8-bit   0..4        5=default-left        2**5  = 32 attributes
                    6=is-leaf
                    7=exchange
16-bit  0..12       13/14/15 (as above)   2**13 = 8192 attributes
32-bit  0..28       29/30/31 (as above)   2**29 attributes
======  ==========  ====================  =========================

The float field (split threshold for internal nodes, leaf value for
leaves) is stored in a separate array, optionally narrowed to float16
or an 8/16-bit affine-quantised grid.  Quantised thresholds are encoded
with a *ceil* rule — the decoded threshold ``t'`` is the smallest
representable value with ``t' >= t`` — so the routing decision
``x < t`` is preserved for every ``x < t`` and can only flip for
``x in [t, t')``: the nextafter-safe guarantee.  Leaf values round to
nearest.  Every codec is a value-level fixed point: once a forest's
floats have been replaced by their decoded images (``apply_encoding``),
re-encoding and decoding reproduces them bit-exactly, which is what the
``.tahoe`` artifact round-trip relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trees.flat import NodeBlock
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree

__all__ = [
    "NodeEncoding",
    "THRESHOLD_MODES",
    "WIDTH_BITS",
    "apply_encoding",
    "decode_field",
    "encode_block",
    "make_encoding",
    "max_attribute_index",
    "pack_node_words",
    "resolve_width_bits",
    "unpack_node_words",
]

#: supported node-word widths, in bits (char / short / int).
WIDTH_BITS = (8, 16, 32)

#: supported float-field storage modes and their on-disk byte widths.
THRESHOLD_MODES = {"f32": 4, "f16": 2, "q8": 1, "q16": 2}

_WORD_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32}
_FIELD_DTYPES = {"f32": np.float32, "f16": np.float16, "q8": np.uint8, "q16": np.uint16}
_QUANT_LEVELS = {"q8": (1 << 8) - 1, "q16": (1 << 16) - 1}


@dataclass(frozen=True)
class NodeEncoding:
    """A packed node format: word width plus float-field storage mode.

    Attributes:
        width_bits: node-word width in bits — 8, 16, or 32.
        threshold_mode: float-field storage — ``f32`` (lossless),
            ``f16`` (lossless iff every value survives the round-trip),
            ``q8``/``q16`` (affine grid, ceil-rounded thresholds).
    """

    width_bits: int
    threshold_mode: str = "f32"

    def __post_init__(self) -> None:
        if self.width_bits not in WIDTH_BITS:
            raise ValueError(f"node word width must be one of {WIDTH_BITS}, got {self.width_bits}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"threshold mode must be one of {sorted(THRESHOLD_MODES)}, "
                f"got {self.threshold_mode!r}"
            )

    # -- word geometry ------------------------------------------------
    @property
    def word_bytes(self) -> int:
        return self.width_bits // 8

    @property
    def fid_bits(self) -> int:
        """Attribute-index bits: everything below the three flag bits."""
        return self.width_bits - 3

    @property
    def fid_capacity(self) -> int:
        return 1 << self.fid_bits

    @property
    def fid_mask(self) -> int:
        return (1 << self.fid_bits) - 1

    @property
    def default_left_bit(self) -> int:
        return 1 << self.fid_bits

    @property
    def is_leaf_bit(self) -> int:
        return 1 << (self.fid_bits + 1)

    @property
    def exchange_bit(self) -> int:
        return 1 << (self.fid_bits + 2)

    @property
    def word_dtype(self) -> np.dtype:
        return np.dtype(_WORD_DTYPES[self.width_bits])

    # -- float field --------------------------------------------------
    @property
    def threshold_bytes(self) -> int:
        return THRESHOLD_MODES[self.threshold_mode]

    @property
    def field_dtype(self) -> np.dtype:
        return np.dtype(_FIELD_DTYPES[self.threshold_mode])

    @property
    def node_bytes(self) -> int:
        """Per-node footprint: packed word + float field."""
        return self.word_bytes + self.threshold_bytes

    @property
    def name(self) -> str:
        return f"w{self.width_bits}/{self.threshold_mode}"


def max_attribute_index(forest: Forest) -> int:
    """Largest attribute index referenced by any split (0 if none)."""
    attrs = forest.distinct_attributes()
    return int(attrs[-1]) if attrs.size else 0


def resolve_width_bits(forest: Forest, requested: int | str = "auto") -> int:
    """Pick the node-word width for ``forest``.

    ``"auto"`` chooses the narrowest of :data:`WIDTH_BITS` whose
    attribute-index capacity covers the largest referenced fid — the
    per-forest rule of ``encode_node_adaptive``.  An explicit width is
    validated against the same capacity and rejected if too narrow.
    """
    max_fid = max_attribute_index(forest)
    if requested == "auto":
        for bits in WIDTH_BITS:
            if max_fid < (1 << (bits - 3)):
                return bits
        raise ValueError(f"attribute index {max_fid} exceeds 32-bit node-word capacity")
    bits = int(requested)
    if bits not in WIDTH_BITS:
        raise ValueError(f"node word width must be one of {WIDTH_BITS} or 'auto', got {requested}")
    if max_fid >= (1 << (bits - 3)):
        raise ValueError(
            f"forest references attribute {max_fid}, which does not fit the "
            f"{bits}-bit node word's {1 << (bits - 3)}-attribute capacity"
        )
    return bits


def make_encoding(
    forest: Forest, node_width: int | str | None, threshold_mode: str = "f32"
) -> NodeEncoding | None:
    """Resolve a config-level width request into a concrete encoding
    (``None``, the config default, asks for no packed record)."""
    if node_width is None:
        return None
    return NodeEncoding(resolve_width_bits(forest, node_width), threshold_mode)


# ---------------------------------------------------------------------------
# node-word packing
# ---------------------------------------------------------------------------


def pack_node_words(tree: DecisionTree, encoding: NodeEncoding) -> np.ndarray:
    """Bit-pack one tree's per-node fid + flags into node words."""
    is_leaf = tree.feature == LEAF
    fid = np.where(is_leaf, 0, tree.feature).astype(np.int64)
    if fid.size and int(fid.max()) > encoding.fid_mask:
        raise ValueError(
            f"attribute index {int(fid.max())} does not fit {encoding.width_bits}-bit node words"
        )
    words = fid.astype(np.uint64)
    words |= np.where(tree.default_left, np.uint64(encoding.default_left_bit), np.uint64(0))
    words |= np.where(is_leaf, np.uint64(encoding.is_leaf_bit), np.uint64(0))
    words |= np.where(tree.flip, np.uint64(encoding.exchange_bit), np.uint64(0))
    return words.astype(encoding.word_dtype)


def unpack_node_words(words: np.ndarray, encoding: NodeEncoding) -> dict[str, np.ndarray]:
    """Invert :func:`pack_node_words` into the tree's structural arrays."""
    w = words.astype(np.uint64)
    is_leaf = (w & np.uint64(encoding.is_leaf_bit)) != 0
    fid = (w & np.uint64(encoding.fid_mask)).astype(np.int32)
    return {
        "feature": np.where(is_leaf, np.int32(LEAF), fid).astype(np.int32),
        "default_left": (w & np.uint64(encoding.default_left_bit)) != 0,
        "is_leaf": is_leaf,
        "flip": (w & np.uint64(encoding.exchange_bit)) != 0,
    }


# ---------------------------------------------------------------------------
# float-field codecs
# ---------------------------------------------------------------------------


def make_grid(values: np.ndarray, mode: str) -> tuple[float, float] | None:
    """Affine quantisation grid ``(lo, step)`` covering ``values``.

    ``step`` is inflated by one part in 2**40 so the top code decodes to
    at least the true maximum after float32 rounding, keeping the ceil
    rule's ``t' >= t`` guarantee valid at both grid ends.  Non-quantised
    modes (``f32``, ``f16``) need no grid and return ``None``.
    """
    levels = _QUANT_LEVELS.get(mode)
    if levels is None:
        return None
    finite = values[np.isfinite(values)] if values.size else values
    if finite.size == 0:
        return 0.0, 1.0
    lo = float(np.min(finite))
    hi = float(np.max(finite))
    if hi <= lo:
        return lo, 1.0
    step = (hi - lo) / levels * (1.0 + 2.0**-40)
    return lo, step


def _decode_codes(codes: np.ndarray, grid: tuple[float, float]) -> np.ndarray:
    lo, step = grid
    return (np.float64(lo) + codes.astype(np.float64) * np.float64(step)).astype(np.float32)


def encode_field(
    values: np.ndarray,
    mode: str,
    grid: tuple[float, float] | None,
    *,
    rounding: str = "ceil",
) -> np.ndarray:
    """Encode a float32 field into its storage dtype.

    ``rounding="ceil"`` (thresholds) selects, per entry, the smallest
    code whose decoded value is ``>= v`` — the nextafter-safe rule.
    ``rounding="nearest"`` (leaf values) minimises absolute error.
    """
    values = np.asarray(values, dtype=np.float32)
    if mode == "f32":
        return values.copy()
    if mode == "f16":
        half = values.astype(np.float16)
        if rounding == "ceil":
            below = half.astype(np.float32) < values
            half = np.where(below, np.nextafter(half, np.float16(np.inf)), half)
        return half.astype(np.float16)
    levels = _QUANT_LEVELS[mode]
    lo, step = grid  # type: ignore[misc]
    scaled = (values.astype(np.float64) - lo) / step
    if rounding == "ceil":
        candidate = np.ceil(scaled)
    else:
        candidate = np.rint(scaled)
    candidate = np.clip(candidate, 0, levels).astype(np.int64)
    if rounding == "ceil":
        # fix up float-rounding slop so decode(code) is the smallest
        # grid point >= v (within the clipped range)
        lower = np.clip(candidate - 1, 0, levels)
        use_lower = _decode_codes(lower, (lo, step)) >= values
        candidate = np.where(use_lower, lower, candidate)
        short = (_decode_codes(candidate, (lo, step)) < values) & (candidate < levels)
        candidate = np.where(short, candidate + 1, candidate)
    return candidate.astype(_FIELD_DTYPES[mode])


def decode_field(
    codes: np.ndarray, mode: str, grid: tuple[float, float] | None
) -> np.ndarray:
    """Decode a stored field back to float32 (pure: grid + codes only)."""
    if mode == "f32":
        return np.asarray(codes, dtype=np.float32).copy()
    if mode == "f16":
        return np.asarray(codes, dtype=np.float16).astype(np.float32)
    return _decode_codes(np.asarray(codes), grid)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# forest-level application
# ---------------------------------------------------------------------------


def apply_encoding(forest: Forest, encoding: NodeEncoding) -> tuple[Forest, dict]:
    """Replace the forest's floats with their decoded images.

    Returns a new forest (views into one node block, see
    :func:`encode_block`) plus JSON-safe metadata describing the
    encoding: width, mode, grids, and whether the round-trip was
    lossless.  After this transform every consumer — simulators, the
    native backend, SHAP, artifacts — executes the *stored* encoding, so
    lossless widths stay bit-identical automatically and re-encoding at
    pack time is a fixed point.
    """
    block = NodeBlock.from_trees(forest, views=True)
    return block.forest, encode_block(block, encoding)


def encode_block(block: NodeBlock, encoding: NodeEncoding) -> dict:
    """Replace a node block's thresholds and leaf values, in place, with
    their decoded images; return the encoding's metadata (``f32``
    storage leaves the block untouched).  Grids cover the numeric
    splits' thresholds and the leaves' values; leaves keep their
    (routing-dead) threshold slots encoded too, so the whole array is a
    codec fixed point."""
    mode = encoding.threshold_mode
    meta: dict = {
        "width_bits": encoding.width_bits,
        "threshold_mode": mode,
        "node_bytes": encoding.node_bytes,
        "tgrid": None,
        "vgrid": None,
        "lossless": True,
    }
    if mode == "f32":
        return meta
    tgrid = vgrid = None
    if mode in _QUANT_LEVELS:
        leaf = block.is_leaf
        split = ~leaf if block.cat_offset is None else ~leaf & (block.cat_offset < 0)
        tgrid = make_grid(block.threshold[split], mode)
        vgrid = make_grid(block.value[leaf], mode)
        meta["tgrid"] = [float(tgrid[0]), float(tgrid[1])]
        meta["vgrid"] = [float(vgrid[0]), float(vgrid[1])]
    threshold = decode_field(encode_field(block.threshold, mode, tgrid), mode, tgrid)
    value = decode_field(encode_field(block.value, mode, vgrid, rounding="nearest"), mode, vgrid)
    meta["lossless"] = bool(
        np.array_equal(threshold, block.threshold) and np.array_equal(value, block.value)
    )
    block.threshold[:] = threshold
    block.value[:] = value
    return meta
