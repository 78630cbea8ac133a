"""Persistable pre-training artifacts.

A :class:`PretrainArtifact` wraps a
:class:`~repro.core.pretrainer.PretrainResult` together with everything a
later process needs to resume fine-tuning from it: the full
:class:`~repro.api.config.RunConfig` that produced it, the encoder's node
capacity, the ``delta_scale`` the encoder was built with, and a
fingerprint of the pre-training stream.  ``save(path)`` writes one
pickle-free ``.npz`` file (array payload + embedded JSON metadata with a
format version); ``load(path)`` verifies compatibility before
reconstructing the result, so pre-train-once / fine-tune-everywhere works
across processes and machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from ..core.checkpoints import MemoryCheckpoints
from ..core.config import CPDGConfig
from ..core.pretrainer import PretrainResult
from ..graph.events import EventStream
from ..nn.serialization import NPZ_CORRUPTION_ERRORS, save_arrays
from .config import ConfigError, RunConfig

__all__ = ["ARTIFACT_FORMAT_VERSION", "ArtifactError", "FineTunedBundle",
           "PretrainArtifact", "stream_fingerprint"]

# Version 2 (this build) adds an optional fine-tuned bundle — downstream
# encoder parameters, task head, EIE module — so ``evaluate`` can score
# without re-running fine-tuning.  Version-1 files still load (the bundle
# is simply absent).
ARTIFACT_FORMAT_VERSION = 2

_META_KEY = "__meta__"
_ENCODER_PREFIX = "encoder/"
_FT_PREFIXES = {"encoder_state": "finetuned/encoder/",
                "head_state": "finetuned/head/",
                "eie_state": "finetuned/eie/"}
_REQUIRED_ARRAYS = ("memory_state", "last_update", "checkpoints",
                    "loss_history")
_REQUIRED_META = ("format_version", "run_config", "num_nodes", "delta_scale",
                  "dataset_fingerprint", "dataset_name")


class ArtifactError(RuntimeError):
    """Unreadable or incompatible pre-training artifact."""


def stream_fingerprint(stream: EventStream,
                       include_payloads: bool = True) -> str:
    """Stable short hash of a stream's events (identity, not provenance).

    Edge features and labels participate when present, so two streams
    with identical topology but different payloads do not collide in the
    on-disk :class:`~repro.experiments.common.PretrainCache`; featureless
    streams keep their historical fingerprints.
    ``include_payloads=False`` computes the legacy topology-only hash,
    which format-v1 artifacts recorded.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(stream.num_nodes).tobytes())
    digest.update(np.ascontiguousarray(stream.src).tobytes())
    digest.update(np.ascontiguousarray(stream.dst).tobytes())
    digest.update(np.ascontiguousarray(stream.timestamps).tobytes())
    if include_payloads:
        if stream.edge_feats is not None:
            digest.update(b"edge_feats")
            digest.update(np.ascontiguousarray(stream.edge_feats).tobytes())
        if stream.labels is not None:
            digest.update(b"labels")
            digest.update(np.ascontiguousarray(stream.labels).tobytes())
    return digest.hexdigest()[:16]


@dataclass
class FineTunedBundle:
    """A fine-tuned downstream model riding along in a v2 artifact.

    ``encoder_state`` are the *fine-tuned* encoder parameters (the
    pre-trained ones after downstream training), ``head_state`` the task
    head, ``eie_state`` the optional EIE module; ``history`` the
    per-epoch fine-tuning log.  Together with the artifact's pre-trained
    memory they reproduce the exact post-fine-tuning model, so
    ``evaluate`` (and the serving layer's ``score_links``) can skip
    re-training.
    """

    task: str
    strategy: str
    encoder_state: dict[str, np.ndarray]
    head_state: dict[str, np.ndarray]
    eie_state: dict[str, np.ndarray] | None = None
    history: list[dict] = None

    def __post_init__(self):
        if self.history is None:
            self.history = []


@dataclass
class PretrainArtifact:
    """A :class:`PretrainResult` plus the context needed to reuse it."""

    result: PretrainResult
    run_config: RunConfig
    num_nodes: int
    delta_scale: float = 1.0
    dataset_fingerprint: str = ""
    dataset_name: str = ""
    format_version: int = ARTIFACT_FORMAT_VERSION
    finetuned: FineTunedBundle | None = None

    @property
    def backbone(self) -> str:
        return self.run_config.backbone

    @property
    def pretrain_config(self) -> CPDGConfig:
        return self.run_config.pretrain

    def describe(self) -> dict:
        """Human-oriented summary (used by the CLI)."""
        l_eta, l_eps, l_tlp = self.result.final_losses
        return {
            "backbone": self.backbone,
            "dataset": self.dataset_name,
            "fingerprint": self.dataset_fingerprint,
            "num_nodes": self.num_nodes,
            "memory_dtype": str(np.asarray(self.result.memory_state).dtype),
            "checkpoints": len(self.result.checkpoints),
            "final_losses": {"L_eta": round(l_eta, 4),
                             "L_eps": round(l_eps, 4),
                             "L_tlp": round(l_tlp, 4)},
            "format_version": self.format_version,
            "finetuned": (None if self.finetuned is None else
                          {"task": self.finetuned.task,
                           "strategy": self.finetuned.strategy,
                           "epochs": len(self.finetuned.history)}),
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the artifact as one compressed, pickle-free ``.npz``."""
        result = self.result
        arrays: dict[str, np.ndarray] = {
            f"{_ENCODER_PREFIX}{name}": array
            for name, array in result.encoder_state.items()
        }
        snapshots = result.checkpoints.as_list()
        arrays["memory_state"] = result.memory_state
        arrays["last_update"] = result.last_update
        arrays["checkpoints"] = (np.stack(snapshots) if snapshots else
                                 np.empty((0,) + result.memory_state.shape))
        arrays["loss_history"] = np.asarray(result.loss_history,
                                            dtype=np.float64).reshape(-1, 3)
        meta = {
            # Saving writes at least the current format (a v1 file
            # re-saved by this build upgrades to v2); an explicitly
            # newer field value round-trips so forward-compat checks work.
            "format_version": max(self.format_version,
                                  ARTIFACT_FORMAT_VERSION),
            "run_config": self.run_config.to_dict(),
            "num_nodes": int(self.num_nodes),
            "delta_scale": float(self.delta_scale),
            "dataset_fingerprint": self.dataset_fingerprint,
            "dataset_name": self.dataset_name,
            # Advisory (not required on load): precision the memory was
            # trained/stored at — npz round-trips array dtypes verbatim.
            "memory_dtype": str(np.asarray(result.memory_state).dtype),
        }
        if self.finetuned is not None:
            bundle = self.finetuned
            for attr, prefix in _FT_PREFIXES.items():
                state = getattr(bundle, attr)
                if state is None:
                    continue
                for name, array in state.items():
                    arrays[f"{prefix}{name}"] = array
            meta["finetuned"] = {"task": bundle.task,
                                 "strategy": bundle.strategy,
                                 "has_eie": bundle.eie_state is not None,
                                 "history": bundle.history}
        arrays[_META_KEY] = np.array(json.dumps(meta))
        save_arrays(path, arrays)

    @classmethod
    def load(cls, path: str) -> "PretrainArtifact":
        """Read an artifact, verifying format compatibility first."""
        try:
            with np.load(path) as payload:
                arrays = {key: payload[key] for key in payload.files}
        except (OSError, ValueError, *NPZ_CORRUPTION_ERRORS) as exc:
            raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from exc
        if _META_KEY not in arrays:
            raise ArtifactError(
                f"{path!r} is not a CPDG pre-training artifact "
                f"(missing {_META_KEY!r} metadata)")
        try:
            meta = json.loads(str(arrays.pop(_META_KEY)))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"corrupt metadata in {path!r}: {exc}") from exc

        missing_meta = [key for key in _REQUIRED_META if key not in meta]
        if missing_meta:
            raise ArtifactError(f"artifact {path!r} metadata is missing "
                                f"{missing_meta}")
        version = meta["format_version"]
        if not isinstance(version, int) or version < 1 \
                or version > ARTIFACT_FORMAT_VERSION:
            raise ArtifactError(
                f"artifact {path!r} has format version {version!r}; this "
                f"build reads versions 1..{ARTIFACT_FORMAT_VERSION}")
        missing = [key for key in _REQUIRED_ARRAYS if key not in arrays]
        if missing:
            raise ArtifactError(f"artifact {path!r} is missing arrays "
                                f"{missing}")
        try:
            run_config = RunConfig.from_dict(meta["run_config"])
        except ConfigError as exc:
            raise ArtifactError(
                f"artifact {path!r} embeds an invalid run config: {exc}"
            ) from exc

        encoder_state = {
            name[len(_ENCODER_PREFIX):]: array
            for name, array in arrays.items()
            if name.startswith(_ENCODER_PREFIX)
            and not name.startswith("finetuned/")
        }
        finetuned = None
        ft_meta = meta.get("finetuned")
        if ft_meta is not None:
            states = {
                attr: {name[len(prefix):]: array
                       for name, array in arrays.items()
                       if name.startswith(prefix)}
                for attr, prefix in _FT_PREFIXES.items()
            }
            finetuned = FineTunedBundle(
                task=ft_meta["task"], strategy=ft_meta["strategy"],
                encoder_state=states["encoder_state"],
                head_state=states["head_state"],
                eie_state=(states["eie_state"]
                           if ft_meta.get("has_eie") else None),
                history=ft_meta.get("history", []),
            )
        checkpoints = MemoryCheckpoints()
        for snapshot in arrays["checkpoints"]:
            checkpoints.add(snapshot)
        result = PretrainResult(
            encoder_state=encoder_state,
            memory_state=arrays["memory_state"],
            last_update=arrays["last_update"],
            checkpoints=checkpoints,
            loss_history=[tuple(row) for row in
                          arrays["loss_history"].tolist()],
        )
        return cls(
            result=result,
            run_config=run_config,
            num_nodes=int(meta["num_nodes"]),
            delta_scale=float(meta["delta_scale"]),
            dataset_fingerprint=meta["dataset_fingerprint"],
            dataset_name=meta["dataset_name"],
            format_version=version,
            finetuned=finetuned,
        )
