"""Content-addressed cache of trained predictor artifacts.

The ``trained`` predictor recipe (:class:`~repro.api.specs.PredictorSpec`)
deterministically reproduces the paper's offline pipeline — run the benchmark
suite under the baseline governor, train the named learner — which is exactly
why nothing but the recipe needs to be shipped.  It is also why nothing but
the recipe needs to be *retrained*: the same recipe always yields the same
model, so fleet workers, repeated sweeps, ``repro serve`` populations
and :func:`~repro.api.session.open_session` calls can share one trained
artifact on disk instead of each paying the collect-and-train cost.

The cache is content-addressed: an artifact's identity is the SHA-256 of the
canonical recipe (kind + params + package version + cache format version),
and the artifact file additionally carries — and is named by — the SHA-256 of
the training data the model was actually fitted on, so
``<spec_sha>-<data_sha>.pkl`` fully names *what* was trained on *which*
data.  A small ``<spec_sha>.json`` index maps the recipe to its artifact for
O(1) lookup.  Writes are atomic (temp file + ``os.replace``), so concurrent
workers racing on a cold cache at worst both train and one replaces the
other with identical bytes.

Configuration is via the ``REPRO_ARTIFACT_DIR`` environment variable (which
child worker processes inherit): a path selects the cache directory, ``off``
(or ``none``/``0``/empty) disables disk caching entirely, and when unset the
cache lives under ``$XDG_CACHE_HOME/repro-usta/predictors`` (default
``~/.cache/repro-usta/predictors``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import TrainingData
    from ..core.predictor import RuntimePredictor

__all__ = [
    "ARTIFACT_ENV_VAR",
    "ArtifactCache",
    "configured_artifact_cache",
    "predictor_content_key",
    "training_data_sha",
]

#: Bump when the on-disk artifact layout changes (invalidates every key).
#: 2: a pickled ``RepTree`` holds its fitted tree as flat arrays.
ARTIFACT_FORMAT_VERSION = 2

ARTIFACT_ENV_VAR = "REPRO_ARTIFACT_DIR"

_DISABLED_VALUES = {"", "off", "none", "0"}


def predictor_content_key(kind: str, params: Mapping[str, object]) -> str:
    """Content key of a predictor recipe (SHA-256 of its canonical form).

    The key covers the recipe itself plus the package version and the cache
    format version, so a release that changes the simulation physics or the
    learners addresses fresh artifacts instead of resurrecting stale ones.
    """
    from .. import __version__

    payload = {
        "format": ARTIFACT_FORMAT_VERSION,
        "repro": __version__,
        "kind": kind,
        "params": params,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def training_data_sha(data: "TrainingData") -> str:
    """SHA-256 over the canonical training records a model was fitted on."""
    digest = hashlib.sha256()
    digest.update(json.dumps(list(data.benchmarks)).encode("utf-8"))
    for record in data.logger.records:
        digest.update(
            json.dumps(asdict(record), sort_keys=True, separators=(",", ":")).encode("utf-8")
        )
    return digest.hexdigest()[:20]


class ArtifactCache:
    """Disk cache of trained :class:`RuntimePredictor` artifacts.

    Attributes:
        directory: cache directory (created on first use).
        hits / misses / stores: per-instance counters (each process sees its
            own instance, so these describe *this* process's traffic).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _index_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def resolve(self, key: str) -> Optional["RuntimePredictor"]:
        """The cached predictor for a content key, or ``None`` on a miss.

        A damaged index or artifact (partial write from a killed process,
        unreadable pickle) counts as a miss — the caller retrains and the
        subsequent :meth:`store` atomically replaces the damage.
        """
        index_path = self._index_path(key)
        try:
            meta = json.loads(index_path.read_text(encoding="utf-8"))
            with open(self.directory / meta["file"], "rb") as fh:
                payload = pickle.load(fh)
            predictor = payload["predictor"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - any damage is a miss, never a crash
            self.misses += 1
            return None
        self.hits += 1
        return predictor

    def store(self, key: str, data_sha: str, predictor: "RuntimePredictor") -> Path:
        """Persist a trained predictor under its content key; returns the path."""
        file_name = f"{key}-{data_sha}.pkl"
        artifact = self.directory / file_name
        payload = {
            "format": ARTIFACT_FORMAT_VERSION,
            "data_sha": data_sha,
            "predictor": predictor,
        }
        self._atomic_write(artifact, pickle.dumps(payload))
        self._atomic_write(
            self._index_path(key),
            json.dumps({"file": file_name, "data_sha": data_sha}).encode("utf-8"),
        )
        self.stores += 1
        return artifact

    def _atomic_write(self, target: Path, content: bytes) -> None:
        # Unique temp name + rename-into-place: concurrent fleet workers
        # storing the same key can interleave freely — each write is all-or-
        # nothing and the last complete one wins.  fsync before the rename so
        # a crash cannot publish a name pointing at unwritten data; clean up
        # the temp file on any failure so the directory doesn't accumulate
        # orphans from killed workers.
        tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(content)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        finally:
            if tmp.exists():
                tmp.unlink()

    def sweep_stale_tmp(self, max_age_s: float = 3600.0) -> int:
        """Delete orphaned ``.tmp`` files older than ``max_age_s``.

        A SIGKILLed worker can leave its in-flight temp file behind; the
        unique names make them harmless but they accumulate.  Recent temps
        are left alone — they may belong to a live writer.
        """
        now = time.time()
        removed = 0
        for tmp in self.directory.glob(".*.tmp"):
            try:
                if now - tmp.stat().st_mtime > max_age_s:
                    tmp.unlink()
                    removed += 1
            except OSError:  # pragma: no cover - raced with another sweeper
                continue
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArtifactCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )


def configured_artifact_cache() -> Optional[ArtifactCache]:
    """The process's artifact cache per ``REPRO_ARTIFACT_DIR`` (or ``None``)."""
    value = os.environ.get(ARTIFACT_ENV_VAR)
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES:
            return None
        return ArtifactCache(value)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return ArtifactCache(root / "repro-usta" / "predictors")
