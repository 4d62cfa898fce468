"""The packed ``.tahoe`` deployment artifact.

Tahoe's conversion pipeline (probability fetch → node rearrangement →
similarity ordering → adaptive format build) runs *online*, every time an
engine starts — acceptable in the paper's single-process experiments,
wasteful in a serving fleet where the same forest boots on many replicas.
PACSET makes the case for persisting the optimised layout itself; this
module applies that to Tahoe's format: pack the **finished**
:class:`~repro.formats.layout.ForestLayout` (trees already rearranged and
flip-bit annotated, trees already in similarity order, record already
width-sized) into one file, and loading it hands
``TahoeEngine.from_layout`` / ``FILEngine.from_layout`` a servable engine
with zero conversion work.

Whatever record a layout simulates, its nodes are stored packed (paper
section 4.3, ``encode_node_adaptive``): per tree, ``words`` (fid + flags
in the narrowest 8/16/32-bit word that holds the forest's fids) and
``tfield``/``vfield`` (thresholds and leaf values in the record's
threshold mode), then ``left``, ``right``, ``visit_count``, the bitset
sections of categorical trees, and ``address``.

File format (all integers little-endian)::

    8 bytes   magic  b"TAHOEPK\\0"
    4 bytes   u32 header length H
    H bytes   JSON header: artifact version, engine kind, GPU spec name,
              conversion key, the source forest's fingerprint (the
              LayoutCache key), forest + layout scalars, and a section
              table of ``[name, dtype, length, crc32]`` rows in file order
    4 bytes   u32 crc32 of the H header bytes
    ...       the sections, back to back, each a little-endian ndarray

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
from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

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
#: The one version this build writes and reads.  v4 stores every layout's
#: nodes as packed words plus float fields and checksums the header;
#: older files must be repacked.
ARTIFACT_VERSION = 4

_PREFIX = len(ARTIFACT_MAGIC) + 4

#: Per-tree structural sections, after the node words and float fields.
_STRUCT_FIELDS = (("left", "int32"), ("right", "int32"), ("visit_count", "int64"))
#: Optional per-tree categorical sections (written only when present).
_CAT_FIELDS = (("cat_offset", "int64"), ("cat_count", "int32"), ("cat_bits", "uint32"))
_WORD_DTYPES = ("uint8", "uint16", "uint32")

#: Required header keys and their exact JSON types (``bool`` is no
#: ``int`` and ``int`` no ``float`` here); nested dicts are sub-schemas.
_HEADER_SCHEMA = {
    "artifact_version": int, "engine": str, "spec_name": str, "conversion_key": list,
    "source_fingerprint": str, "sections": list,
    "forest": {
        "n_trees": int, "tree_nodes": list, "tree_groups": list, "metadata": dict,
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
        (
            fmeta["n_trees"] == len(fmeta["tree_nodes"]) == len(fmeta["tree_groups"]),
            "forest.n_trees disagrees with forest.tree_nodes / forest.tree_groups",
        ),
        (all(type(v) is int and v > 0 for v in fmeta["tree_nodes"]), "bad forest.tree_nodes"),
        (all(type(v) is int and v >= 0 for v in fmeta["tree_groups"]), "bad forest.tree_groups"),
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
        return np.frombuffer(chunk, dtype=dtype).astype(dtype.newbyteorder("="))

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
    forest, record = layout.forest, layout.record
    mode = record.threshold_mode
    # The disk word holds the forest's largest fid, whatever the record
    # width: a legacy-a1 record is sized by distinct-attribute count.
    encoding = codec.NodeEncoding(codec.resolve_width_bits(forest), mode)
    tgrid, vgrid = _grids(layout.metadata, mode)
    writer = _SectionWriter()
    for i, tree in enumerate(forest.trees):
        # The forest's floats are already the codec's decoded images
        # (decode-at-build), so this re-encode is a bit-exact fixed
        # point: load_packed reproduces the arrays exactly.
        writer.add(f"tree{i}/words", codec.pack_node_words(tree, encoding), encoding.word_dtype)
        for name, values, grid, rounding in (
            ("tfield", tree.threshold, tgrid, "ceil"),
            ("vfield", tree.value, vgrid, "nearest"),
        ):
            field = codec.encode_field(values, mode, grid, rounding=rounding)
            writer.add(f"tree{i}/{name}", field, encoding.field_dtype)
        fields = _STRUCT_FIELDS + (_CAT_FIELDS if tree.cat_offset is not None else ())
        for name, dtype in fields:
            writer.add(f"tree{i}/{name}", getattr(tree, name), dtype)
        writer.add(f"tree{i}/address", layout.node_address[i], np.int64)
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
            "tree_nodes": [tree.n_nodes for tree in forest.trees],
            "tree_groups": [tree.group for tree in forest.trees],
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
    loads as a different layout.  Tree validation is skipped: the arrays
    were valid when written and are checksummed on the way back in.

    Raises:
        ArtifactError: bad magic, another version, truncation, a checksum
            mismatch, or a header that does not describe the file.
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
    reader = _SectionReader(raw[header_end + 4 :], header["sections"])
    field = codec.NodeEncoding(8, mode).field_dtype.name  # set by the mode alone

    trees, node_address = [], []
    for i, (n, group) in enumerate(zip(fmeta["tree_nodes"], fmeta["tree_groups"])):
        words = reader.get(f"tree{i}/words", *_WORD_DTYPES, n=n)
        node = codec.unpack_node_words(words, codec.NodeEncoding(8 * words.itemsize, mode))
        fields = _STRUCT_FIELDS + (_CAT_FIELDS if reader.has(f"tree{i}/cat_offset") else ())
        arrays = {
            name: reader.get(f"tree{i}/{name}", dtype, n=None if name == "cat_bits" else n)
            for name, dtype in fields
        }
        threshold = codec.decode_field(reader.get(f"tree{i}/tfield", field, n=n), mode, tgrid)
        value = codec.decode_field(reader.get(f"tree{i}/vfield", field, n=n), mode, vgrid)
        node_address.append(reader.get(f"tree{i}/address", "int64", n=n))
        trees.append(
            DecisionTree(
                feature=node["feature"],
                threshold=threshold,
                value=value,
                default_left=node["default_left"],
                flip=node["flip"],
                group=group,
                validate_on_init=False,
                **arrays,
            )
        )
    n_trees = fmeta["n_trees"]
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
    try:
        forest = Forest(
            trees=trees,
            metadata=dict(fmeta["metadata"]),
            **{k: fmeta[k] for k in _FOREST_SCALARS},
        )
    except ValueError as exc:
        raise ArtifactError(f"{path} describes an invalid forest: {exc}") from exc
    layout = ForestLayout(
        forest=forest,
        record=record,
        tree_order=tree_order,
        node_address=node_address,
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
        """On-disk bytes per section kind (``tree{i}/x`` summed over trees)."""
        sizes: dict[str, int] = {}
        for name, _, length, _ in self.header["sections"]:
            kind = name.split("/", 1)[-1]
            sizes[kind] = sizes.get(kind, 0) + length
        return sizes

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
