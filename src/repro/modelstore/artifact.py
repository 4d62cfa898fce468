"""The packed ``.tahoe`` deployment artifact.

Tahoe's conversion pipeline (probability fetch → node rearrangement →
similarity ordering → adaptive format build) runs *online*, every time an
engine starts — acceptable in the paper's single-process experiments,
wasteful in deployment, where the same forest boots on many replicas.
PACSET makes the case for persisting the optimised layout itself; this
module applies that to Tahoe's format: pack the **finished**
:class:`~repro.formats.layout.ForestLayout` (trees already rearranged and
flip-bit annotated, trees already in similarity order, record already
width-sized) into one file, and loading it hands
``TahoeEngine.from_layout`` / ``FILEngine.from_layout`` a servable engine
with zero conversion work.

Whatever record a layout simulates, its nodes are stored packed (paper
section 4.3, ``encode_node_adaptive``), as the layout's forest-wide node
block (:class:`~repro.trees.flat.NodeBlock`): one section per field for
the whole forest, in tree-storage order.

File format, version 5 (all integers little-endian)::

    8 bytes   magic  b"TAHOEPK\\0"
    4 bytes   u32 header length H
    H bytes   JSON header: artifact version, engine kind, GPU spec name,
              conversion key, the source forest's fingerprint (the
              LayoutCache key), forest + layout scalars, and a section
              table of ``[name, dtype, length, crc32]`` rows in file order
    4 bytes   u32 crc32 of the H header bytes
    ...       the sections, back to back, each a little-endian ndarray:
              tree_nodes, tree_groups (per tree); words (fid + flags in
              the narrowest word holding the forest's fids), tfield and
              vfield (in the record's threshold mode), left, right
              (tree-local), visit_count, address (per node); cat_words
              (per tree, -1 without bitsets), cat_offset, cat_count,
              cat_bits (only when some tree has bitsets); tree_order,
              level_base, level_slots

A load is a fixed number of crc32-checked reads, one
:func:`~repro.formats.encoding.unpack_node_words`, one
:func:`~repro.formats.encoding.decode_field` per float field and one
validation pass; the layout's trees are read-only views into the block.

The header stores the **source** forest's fingerprint (the forest as it
looked *before* conversion), so the packed layout can be published into a
:class:`~repro.core.cache.LayoutCache` under the exact key a cold engine
built from the original JSON would look up.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.formats import encoding as codec
from repro.formats.layout import ForestLayout, NodeRecordLayout
from repro.trees.flat import NodeBlock, check_block
from repro.trees.forest import Forest

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "PackedModel",
    "load_packed",
    "pack_forest",
    "pack_layout",
]

ARTIFACT_MAGIC = b"TAHOEPK\x00"
#: The one version this build writes and reads.  v5 stores the layout's
#: node block one section per field for the whole forest; older files
#: (v4's per-tree sections included) must be repacked.
ARTIFACT_VERSION = 5

_PREFIX = len(ARTIFACT_MAGIC) + 4

#: Per-node sections after the node words and float fields.
_NODE_FIELDS = (
    ("left", "int32"), ("right", "int32"), ("visit_count", "int64"), ("address", "int64")
)
#: Optional bitset sections (written only when some tree has bitsets).
_CAT_FIELDS = (("cat_offset", "int64"), ("cat_count", "int32"))
_WORD_DTYPES = ("uint8", "uint16", "uint32")

#: Required header keys and their exact JSON types (``bool`` is no
#: ``int`` and ``int`` no ``float`` here); nested dicts are sub-schemas.
_HEADER_SCHEMA = {
    "artifact_version": int, "engine": str, "spec_name": str, "conversion_key": list,
    "source_fingerprint": str, "sections": list,
    "forest": {
        "n_trees": int, "metadata": dict,
        "n_classes": int, "n_attributes": int, "task": str, "aggregation": str,
        "base_score": float, "learning_rate": float, "name": str,
    },
    "layout": {
        "format_name": str, "total_bytes": int, "metadata": dict,
        "record": {"attr_bytes": int, "threshold_mode": str, "flags_bytes": int},
    },
}
#: Forest scalars carried as header keys of the same name.
_FOREST_SCALARS = (
    "n_classes", "n_attributes", "task", "aggregation", "base_score", "learning_rate", "name"
)
_SECTION_TYPES = (str, str, int, int)
#: (flags_bytes, threshold_mode) pairs a record can have.
_RECORD_FORMS = {(0, mode) for mode in codec.THRESHOLD_MODES} | {(1, "f32")}


class ArtifactError(ValueError):
    """A ``.tahoe`` file is malformed, corrupt, or from another version."""


def _check_schema(value, schema, where: str) -> None:
    if isinstance(schema, dict):
        if not isinstance(value, dict) or set(value) != set(schema):
            raise ArtifactError(f"{where} must have exactly the keys {sorted(schema)}")
        for key, sub in schema.items():
            _check_schema(value[key], sub, f"{where}.{key}")
    elif type(value) is not schema:
        raise ArtifactError(f"{where} must be a {schema.__name__}")


def _check_header(header: dict) -> NodeRecordLayout:
    """Hold the header to its schema; return the layout's node record."""
    _check_schema(header, _HEADER_SCHEMA, "header")
    fmeta, rmeta = header["forest"], header["layout"]["record"]
    checks = (
        (header["engine"] in ("tahoe", "fil"), "engine must be tahoe or fil"),
        (fmeta["n_trees"] > 0, "forest.n_trees must be positive"),
        (
            rmeta["attr_bytes"] in (1, 2, 4)
            and (rmeta["flags_bytes"], rmeta["threshold_mode"]) in _RECORD_FORMS,
            f"layout.record {rmeta} is not a node record",
        ),
        (
            all(
                type(row) is list and tuple(map(type, row)) == _SECTION_TYPES and row[2] >= 0
                for row in header["sections"]
            ),
            "sections rows must be [name, dtype, length >= 0, crc32]",
        ),
    )
    for ok, problem in checks:
        if not ok:
            raise ArtifactError(f"header {problem}")
    return NodeRecordLayout(**rmeta)


def _grids(metadata: dict, mode: str) -> tuple:
    """``(tgrid, vgrid)`` of a quantised float field; ``(None, None)`` otherwise."""
    if mode not in ("q8", "q16"):
        return None, None
    nmeta = metadata["node_encoding"]
    (t_lo, t_step), (v_lo, v_step) = nmeta["tgrid"], nmeta["vgrid"]
    return (float(t_lo), float(t_step)), (float(v_lo), float(v_step))


class _SectionWriter:
    """Accumulates named ndarray sections and their table rows."""

    def __init__(self) -> None:
        self.blobs: list[bytes] = []
        self.table: list[list] = []

    def add(self, name: str, arr: np.ndarray, dtype) -> None:
        dtype = np.dtype(dtype)
        data = np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes()
        self.table.append([name, dtype.name, len(data), zlib.crc32(data)])
        self.blobs.append(data)


class _SectionReader:
    """Checks and decodes sections against the header table, tracking
    which were read so none goes unaccounted for."""

    def __init__(self, body: bytes, table: list[list]) -> None:
        self._body = body
        self._sections = {}
        offset = 0
        for name, dtype, length, crc in table:
            self._sections[name] = (dtype, offset, length, crc)
            offset += length
        if len(self._sections) != len(table):
            raise ArtifactError("artifact section table repeats a name")
        if offset != len(body):
            raise ArtifactError(
                f"artifact sections span {offset} bytes but {len(body)} follow the header "
                "(truncated or padded)"
            )
        self._unread = set(self._sections)

    def has(self, name: str) -> bool:
        return name in self._sections

    def get(self, name: str, *dtypes: str, n: int | None = None) -> np.ndarray:
        """Section ``name``; its dtype must be one of ``dtypes`` and, when
        ``n`` is given, it must hold ``n`` entries."""
        if name not in self._sections:
            raise ArtifactError(f"artifact is missing section {name!r}")
        dtype, offset, length, crc = self._sections[name]
        if dtype not in dtypes:
            raise ArtifactError(f"section {name!r} has dtype {dtype!r}, expected one of {dtypes}")
        dtype = np.dtype(dtype).newbyteorder("<")
        if length % dtype.itemsize or (n is not None and length != n * dtype.itemsize):
            raise ArtifactError(f"section {name!r} has the wrong length ({length} B)")
        chunk = self._body[offset : offset + length]
        if zlib.crc32(chunk) != crc:
            raise ArtifactError(f"section {name!r} failed its crc32 check")
        self._unread.discard(name)
        # A read-only view of the file's bytes on little-endian hosts.
        return np.frombuffer(chunk, dtype=dtype).astype(dtype.newbyteorder("="), copy=False)

    def check_all_read(self) -> None:
        if self._unread:
            raise ArtifactError(f"artifact has unexpected sections {sorted(self._unread)[:5]}")


def _json_safe_metadata(metadata: dict) -> dict:
    """Layout metadata minus runtime caches: keys starting with ``_``
    (e.g. the flattened device image) and values JSON cannot carry."""
    safe = {}
    for key, value in metadata.items():
        if key.startswith("_"):
            continue
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


def _tupleize(value):
    """JSON round-trips tuples as lists; restore them recursively."""
    if isinstance(value, list):
        return tuple(_tupleize(v) for v in value)
    return value


def pack_layout(
    layout: ForestLayout,
    path: str | Path,
    *,
    engine: str,
    spec_name: str,
    conversion_key: tuple,
    source_fingerprint: str,
) -> "PackedModel":
    """Serialise a finished layout to ``path`` as a ``.tahoe`` artifact.

    Args:
        layout: the converted layout to persist.
        engine: ``"tahoe"`` or ``"fil"`` — which engine the layout's
            format belongs to.
        spec_name: GPU spec the layout targets (recorded; the strategy
            ranking depends on it only at predict time).
        conversion_key: the config half of the layout-cache key.
        source_fingerprint: ``Forest.fingerprint()`` of the forest as it
            was *before* conversion — the content half of the cache key.
    """
    forest, record, block = layout.forest, layout.record, layout.block
    mode = record.threshold_mode
    # The disk word holds the forest's largest fid, whatever the record
    # width: a legacy-a1 record is sized by distinct-attribute count.
    encoding = codec.NodeEncoding(codec.resolve_width_bits(forest), mode)
    tgrid, vgrid = _grids(layout.metadata, mode)
    nodes = {name: getattr(block, name) for name in ("feature", "threshold", "value")}
    nodes.update(left=block.local_left, right=block.local_right)
    nodes.update(cat_offset=block.cat_offset, cat_count=block.cat_count, address=layout.address)
    try:
        block.check(forest.n_attributes)
    except ValueError as exc:
        raise ArtifactError(f"cannot pack a layout that would not load: {exc}") from exc
    writer = _SectionWriter()
    writer.add("tree_nodes", np.diff(block.offsets), np.int64)
    writer.add("tree_groups", block.group, np.int64)
    writer.add("words", codec.pack_node_words(block, encoding), encoding.word_dtype)
    # The forest's floats are already the codec's decoded images
    # (decode-at-build), so this re-encode is a bit-exact fixed point:
    # load_packed reproduces the arrays exactly.
    writer.add("tfield", codec.encode_field(block.threshold, mode, tgrid), encoding.field_dtype)
    vfield = codec.encode_field(block.value, mode, vgrid, rounding="nearest")
    writer.add("vfield", vfield, encoding.field_dtype)
    nodes["visit_count"] = block.visit_count
    for name, dtype in _NODE_FIELDS:
        writer.add(name, nodes[name], dtype)
    if block.cat_words is not None:
        writer.add("cat_words", block.cat_words, np.int64)
        for name, dtype in _CAT_FIELDS:
            writer.add(name, nodes[name], dtype)
        writer.add("cat_bits", block.cat_bits, np.uint32)
    writer.add("tree_order", np.asarray(layout.tree_order), np.int64)
    writer.add("level_base", layout.level_base, np.int64)
    writer.add("level_slots", layout.level_slots, np.int64)

    forest_types = _HEADER_SCHEMA["forest"]
    header = {
        "artifact_version": ARTIFACT_VERSION,
        "engine": engine,
        "spec_name": spec_name,
        "conversion_key": list(conversion_key),
        "source_fingerprint": source_fingerprint,
        "forest": {
            "n_trees": forest.n_trees,
            "metadata": _json_safe_metadata(forest.metadata),
            # coerced to the schema's types, e.g. an integral base_score
            **{k: forest_types[k](getattr(forest, k)) for k in _FOREST_SCALARS},
        },
        "layout": {
            "format_name": layout.format_name,
            "total_bytes": layout.total_bytes,
            "metadata": _json_safe_metadata(layout.metadata),
            "record": {
                "attr_bytes": record.attr_bytes,
                "threshold_mode": mode,
                "flags_bytes": record.flags_bytes,
            },
        },
        "sections": writer.table,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARTIFACT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", zlib.crc32(header_bytes)))
        for blob in writer.blobs:
            fh.write(blob)
    return PackedModel(header=header, layout=layout, path=Path(path))


def pack_forest(
    forest: Forest,
    spec,
    path: str | Path,
    *,
    engine: str = "tahoe",
    config=None,
) -> "PackedModel":
    """Convert ``forest`` for ``spec`` and pack the result in one step.

    This is the offline half of the deployment story: run the full
    conversion pipeline once (exactly as a cold engine would), then
    persist its output so every later engine start skips it.
    """
    from repro.core import ENGINE_KINDS

    if engine not in ENGINE_KINDS:
        raise ArtifactError(f"unknown engine kind {engine!r} (need tahoe or fil)")
    cls = ENGINE_KINDS[engine]
    fingerprint = forest.fingerprint()
    built = cls(forest, spec, config=config)
    return pack_layout(
        built.layout,
        path,
        engine=engine,
        spec_name=spec.name,
        conversion_key=cls.conversion_key(config),
        source_fingerprint=fingerprint,
    )


def load_packed(path: str | Path) -> "PackedModel":
    """Read and verify a ``.tahoe`` artifact.

    The header and every section are crc32-checked, the header is held to
    its schema, and every section must be read, so a damaged file never
    loads as a different layout.  The node block is then validated in
    one vectorised pass (:func:`~repro.trees.flat.check_block`), so a file whose checksums
    were recomputed over bad arrays is refused too.

    Raises:
        ArtifactError: bad magic, another version, truncation, a checksum
            mismatch, a header that does not describe the file, or a node
            block that is not a valid forest.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX or raw[: len(ARTIFACT_MAGIC)] != ARTIFACT_MAGIC:
        raise ArtifactError(
            f"{path} is not a .tahoe artifact (bad magic); pack one with "
            "`repro pack` or modelstore.pack_forest"
        )
    (header_len,) = struct.unpack_from("<I", raw, len(ARTIFACT_MAGIC))
    header_end = _PREFIX + header_len
    if len(raw) < header_end + 4:
        raise ArtifactError(f"{path} is truncated inside its header")
    header_bytes = raw[_PREFIX:header_end]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path} has a corrupt header: {exc}") from exc
    version = header.get("artifact_version") if isinstance(header, dict) else None
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path} has artifact version {version!r}; this build reads only "
            f"version {ARTIFACT_VERSION}: repack the model with `repro pack` "
            "or modelstore.pack_forest"
        )
    if struct.unpack_from("<I", raw, header_end)[0] != zlib.crc32(header_bytes):
        raise ArtifactError(f"{path} header failed its crc32 check")
    record = _check_header(header)
    fmeta, lmeta = header["forest"], header["layout"]
    mode = record.threshold_mode
    try:
        tgrid, vgrid = _grids(lmeta["metadata"], mode)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path} lacks the {mode} quantisation grids: {exc}") from exc
    reader = _SectionReader(memoryview(raw)[header_end + 4 :], header["sections"])
    field = codec.NodeEncoding(8, mode).field_dtype.name  # set by the mode alone

    n_trees = fmeta["n_trees"]
    sizes = reader.get("tree_nodes", "int64")
    if sizes.shape[0] != n_trees:
        raise ArtifactError(
            f"{path} header forest.n_trees = {n_trees} disagrees with its "
            f"{sizes.shape[0]} tree sizes"
        )
    words = reader.get("words", *_WORD_DTYPES)
    n = words.shape[0]
    if (sizes <= 0).any() or int(sizes.sum()) != n:
        raise ArtifactError(f"{path} tree sizes do not sum to its {n} nodes")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    group = reader.get("tree_groups", "int64", n=n_trees)
    nodes = codec.unpack_node_words(words, codec.NodeEncoding(8 * words.itemsize, mode))
    del nodes["is_leaf"]
    nodes["threshold"] = codec.decode_field(reader.get("tfield", field, n=n), mode, tgrid)
    nodes["value"] = codec.decode_field(reader.get("vfield", field, n=n), mode, vgrid)
    for name, dtype in _NODE_FIELDS:
        nodes[name] = reader.get(name, dtype, n=n)
    address = nodes.pop("address")
    cat_words = cat_bits = None
    if reader.has("cat_words"):
        cat_words = reader.get("cat_words", "int64", n=n_trees)
        for name, dtype in _CAT_FIELDS:
            nodes[name] = reader.get(name, dtype, n=n)
        cat_bits = reader.get("cat_bits", "uint32")
    tree_order = reader.get("tree_order", "int64", n=n_trees).tolist()
    level_base = reader.get("level_base", "int64")
    level_slots = reader.get("level_slots", "int64", n=level_base.size)
    reader.check_all_read()
    if sorted(tree_order) != list(range(n_trees)):
        raise ArtifactError(f"{path} tree_order is not a permutation of its trees")
    if level_base.size == 0 or lmeta["total_bytes"] != int(
        level_base[-1] + level_slots[-1] * n_trees * record.node_bytes
    ):
        raise ArtifactError(f"{path} total_bytes disagrees with its levels and record")
    for arr in (*nodes.values(), group, cat_bits):
        if arr is not None:
            arr.flags.writeable = False
    try:
        check_block(offsets, nodes, cat_words, cat_bits, fmeta["n_attributes"])
        block = NodeBlock.from_arrays(offsets, group, nodes, cat_bits, cat_words)
        block.walk()  # every node reachable from its root
        block.forest = Forest(
            trees=block.trees,
            metadata=dict(fmeta["metadata"]),
            **{k: fmeta[k] for k in _FOREST_SCALARS},
        )
    except ValueError as exc:
        raise ArtifactError(f"{path} describes an invalid forest: {exc}") from exc
    layout = ForestLayout(
        block=block,
        record=record,
        tree_order=tree_order,
        _address=address,
        level_base=level_base,
        level_slots=level_slots,
        total_bytes=lmeta["total_bytes"],
        format_name=lmeta["format_name"],
        metadata=dict(lmeta["metadata"]),
    )
    return PackedModel(header=header, layout=layout, path=Path(path))


@dataclass
class PackedModel:
    """A loaded (or just-written) ``.tahoe`` artifact.

    Attributes:
        header: the decoded JSON header (section table included).
        layout: the reconstructed, ready-to-serve layout.
        path: where the artifact lives on disk.
    """

    header: dict
    layout: ForestLayout
    path: Path

    @property
    def engine_kind(self) -> str:
        return self.header["engine"]

    @property
    def spec_name(self) -> str:
        return self.header["spec_name"]

    @property
    def source_fingerprint(self) -> str:
        return self.header["source_fingerprint"]

    @property
    def conversion_key(self) -> tuple:
        return _tupleize(self.header["conversion_key"])

    @property
    def cache_key(self) -> tuple:
        """The :class:`~repro.core.cache.LayoutCache` key a cold engine
        built from the *source* forest would compute."""
        return (self.source_fingerprint, self.spec_name, self.conversion_key)

    @property
    def node_encoding(self) -> str:
        """On-disk node-record label (``w8/f32``, ``legacy-a1``, ...)."""
        return self.layout.record.encoding_label

    def section_sizes(self) -> dict[str, int]:
        """On-disk bytes per section (one section per forest-wide field)."""
        return {name: length for name, _, length, _ in self.header["sections"]}

    def resolve_spec(self):
        """Find the artifact's GPU spec among the known presets."""
        from repro.gpusim.specs import GPU_SPECS

        for spec in GPU_SPECS.values():
            if spec.name == self.spec_name:
                return spec
        raise ArtifactError(
            f"artifact targets unknown GPU spec {self.spec_name!r}; pass "
            "spec= explicitly to make_engine"
        )

    def make_engine(
        self,
        spec=None,
        *,
        config=None,
        hardware=None,
        recorder=None,
        layout_cache=None,
        backend=None,
    ):
        """Build a servable engine from the packed layout — no conversion.

        By default the engine class matches the packed format (``tahoe``
        → adaptive layout + full strategy selection, ``fil`` → reorg +
        shared-data).  ``backend="native"`` instead returns a
        :class:`~repro.core.native.NativeEngine` executing the packed
        layout (either format) on the host at wall-clock speed;
        ``backend=None`` or ``"simulated"`` keeps the format-matched
        simulator engine.  When ``layout_cache`` is given the layout is
        published under :attr:`cache_key`, so engines later built from
        the source forest hit the cache instead of reconverting.
        """
        from repro.core import engine_class

        spec = spec if spec is not None else self.resolve_spec()
        if spec.name != self.spec_name:
            raise ArtifactError(
                f"artifact was packed for {self.spec_name!r} but spec is "
                f"{spec.name!r}; repack with `repro pack --gpu ...`"
            )
        if backend not in (None, "simulated", "native"):
            raise ArtifactError(
                f"unknown backend {backend!r} (expected 'simulated' or 'native')"
            )
        return engine_class(self.engine_kind, backend).from_layout(
            self.layout,
            spec,
            cache_key=self.cache_key,
            config=config,
            hardware=hardware,
            recorder=recorder,
            layout_cache=layout_cache,
        )
