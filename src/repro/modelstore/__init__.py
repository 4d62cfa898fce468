"""Model store: how forests get *into* and *out of* the engine.

Until now the adaptive forest format (paper §4.3) existed only
transiently in process memory: every engine start re-ran the conversion
pipeline from a raw JSON forest, and the only ingest path was our own
trainer.  This package makes models deployment artifacts:

* :mod:`repro.modelstore.importers` — convert scikit-learn,
  XGBoost and LightGBM model dumps into our internal
  :class:`~repro.trees.forest.Forest` by parsing their dump formats
  directly (no dependency on those libraries).
* :mod:`repro.modelstore.artifact` — the packed ``.tahoe`` file: a
  schema-versioned, checksummed binary serialisation of the *converted*
  layout (post node rearrangement, post similarity tree ordering,
  variable-width records), so an engine can load and serve with zero
  reconversion (PACSET's argument, applied to Tahoe's format).
* :mod:`repro.modelstore.loader` — one sniffing loader behind
  ``repro predict --forest`` / ``repro serve --forest`` that accepts any
  supported format and says which formats exist when it cannot.

Versions and hot swap belong to the serving layer:
:class:`~repro.serving.server.TahoeServer` numbers the versions of the
model it serves and stages each from a forest or a packed layout.
"""

from repro.modelstore.artifact import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    ArtifactError,
    PackedModel,
    load_packed,
    pack_forest,
    pack_layout,
)
from repro.modelstore.importers import (
    SUPPORTED_FORMATS,
    ModelImportError,
    from_lightgbm_text,
    from_sklearn,
    from_sklearn_export,
    from_xgboost_dump,
    from_xgboost_json,
    import_model,
    sklearn_to_export_dict,
)
from repro.modelstore.loader import load_model, sniff_format

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ModelImportError",
    "PackedModel",
    "SUPPORTED_FORMATS",
    "from_lightgbm_text",
    "from_sklearn",
    "from_sklearn_export",
    "from_xgboost_dump",
    "from_xgboost_json",
    "import_model",
    "load_model",
    "load_packed",
    "pack_forest",
    "pack_layout",
    "sklearn_to_export_dict",
    "sniff_format",
]
