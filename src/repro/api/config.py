"""Run configuration for the unified CPDG pipeline.

:class:`RunConfig` nests everything one end-to-end run needs — the
pre-training hyper-parameters (:class:`~repro.core.config.CPDGConfig`),
the downstream optimisation knobs
(:class:`~repro.tasks.finetune.FineTuneConfig`), the dataset recipe
(:class:`DataConfig`) and the backbone / task / strategy choices — and
makes the whole bundle serialisable:

* ``to_dict()`` / ``from_dict()`` — nested plain-dict round trip with
  strict unknown-key rejection,
* ``to_json(path)`` / ``from_json(path)`` — JSON file round trip,
* ``with_overrides({"pretrain.beta": 0.3})`` — dotted-key functional
  updates, the substrate of the CLI's ``--set section.key=value`` flags.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields

from ..core.config import CPDGConfig
from ..dgnn.encoder import BACKBONES
from ..tasks.finetune import STRATEGIES, FineTuneConfig

__all__ = ["ConfigError", "DataConfig", "ObsConfig", "RunConfig", "TASKS",
           "parse_override", "parse_set_args"]

TASKS = ("link_prediction", "node_classification")

# Short aliases accepted anywhere a task name is taken (the experiment
# runners historically use "link" / "node").
_TASK_ALIASES = {"link": "link_prediction", "node": "node_classification"}

# Override aliases fanning one ``--set`` key out to several leaf fields.
_OVERRIDE_ALIASES = {
    "nn.compile": ("pretrain.compile_step",),
}

# Section keys that earlier builds wrote into run-config JSON and artifact
# metadata and that no longer exist.  ``from_dict`` drops them so those
# files keep loading; ``--set`` still rejects them like any unknown key.
_RETIRED_KEYS = {"pretrain": {"backend", "fabric", "fabric_lease_timeout", "fabric_ranges", "memory_engine", "mmap_graph", "shard_dir"},
                 "finetune": {"backend", "compile_step", "num_workers",
                              "prefetch_batches"},
                 "obs": {"trace_buffer"}}


class ConfigError(ValueError):
    """Malformed run configuration or override."""


def normalize_task(task: str) -> str:
    task = _TASK_ALIASES.get(task, task)
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    return task


@dataclass
class DataConfig:
    """Recipe for the pre-train stream + downstream split of one run.

    ``dataset`` names a registry entry: ``meituan``, a labelled stream
    (``wikipedia`` / ``mooc`` / ``reddit``) or a fielded target such as
    ``amazon:beauty`` / ``gowalla:outdoors``.  Fielded datasets split by
    the paper's transfer settings (``transfer`` + ``split_time`` +
    ``source_field``); the others split chronologically by fraction.
    """

    dataset: str = "meituan"
    num_users: int = 60
    num_items: int = 40
    events_main: int = 1500
    events_source: int = 1800
    events_labeled: int = 1500
    seed: int | None = None

    # Fraction-based chronological split (meituan / labelled datasets).
    pretrain_fraction: float = 0.6
    train_fraction: float = 0.7
    val_fraction: float = 0.15
    test_fraction: float = 0.15

    # Transfer split (fielded datasets only, paper §V-C).
    transfer: str = "time"
    source_field: str | None = None
    split_time: float | None = None

    @property
    def downstream_fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)

    def validate(self) -> None:
        if not self.dataset:
            raise ConfigError("data.dataset must be non-empty")
        if not 0.0 < self.pretrain_fraction < 1.0:
            raise ConfigError("data.pretrain_fraction must be in (0, 1)")
        total = sum(self.downstream_fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError("data train/val/test fractions must sum to 1, "
                              f"got {total}")
        if any(f <= 0 for f in self.downstream_fractions):
            raise ConfigError("data train/val/test fractions must be positive")
        if self.transfer not in ("time", "field", "time+field"):
            raise ConfigError(f"unknown transfer setting {self.transfer!r}")


@dataclass
class ObsConfig:
    """Observability knobs (the :mod:`repro.obs` subsystem).

    Metrics counters are always on (they are near-free); these knobs
    control *span tracing*, which times every instrumented stage and is
    off by default.
    """

    enabled: bool = False        # span tracing on/off
    trace_path: str | None = None  # JSONL span log (None: buffer only)


@dataclass
class RunConfig:
    """Everything one pretrain → fine-tune → evaluate run needs."""

    backbone: str = "tgn"
    task: str = "link_prediction"
    strategy: str = "eie-gru"
    inductive: bool = False
    data: DataConfig = field(default_factory=DataConfig)
    pretrain: CPDGConfig = field(default_factory=CPDGConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}; "
                              f"expected one of {BACKBONES}")
        normalize_task(self.task)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"expected one of {STRATEGIES}")
        self.data.validate()
        for name in ("pretrain", "finetune"):
            try:
                getattr(self, name).validate()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    # ------------------------------------------------------------------
    # dict / JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Strict inverse of :meth:`to_dict` — unknown keys are errors,
        except the retired keys files from earlier builds still carry."""
        if not isinstance(payload, dict):
            raise ConfigError(f"expected a mapping, got {type(payload).__name__}")
        sections = {"data": DataConfig, "pretrain": CPDGConfig,
                    "finetune": FineTuneConfig, "obs": ObsConfig}
        top = {f.name for f in fields(cls)}
        unknown = set(payload) - top
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key, value in payload.items():
            if key in sections:
                kwargs[key] = _section_from_dict(sections[key], key, value)
            else:
                kwargs[key] = value
        config = cls(**kwargs)
        config.validate()
        return config

    def to_json(self, path: str, indent: int = 2) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=indent)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # dotted-key overrides
    # ------------------------------------------------------------------
    def with_overrides(self, overrides: dict[str, object]) -> "RunConfig":
        """Functional update from dotted keys, e.g. ``pretrain.beta``.

        Each key must name an existing leaf field; pointing at a whole
        section (``--set pretrain=...``) or an unknown field raises
        :class:`ConfigError`.  A few aliases fan one key out to several
        fields: ``nn.compile`` toggles the compiled pre-training step
        (``--set nn.compile=false`` restores pure eager autograd;
        fine-tuning always runs eager).
        """
        expanded: dict[str, object] = {}
        for dotted, value in overrides.items():
            for target in _OVERRIDE_ALIASES.get(dotted, (dotted,)):
                expanded[target] = value
        payload = self.to_dict()
        for dotted, value in expanded.items():
            node = payload
            parts = dotted.split(".")
            for depth, part in enumerate(parts[:-1]):
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError(
                        f"unknown config key {'.'.join(parts[:depth + 1])!r}")
                node = node[part]
            leaf = parts[-1]
            if leaf not in node:
                raise ConfigError(f"unknown config key {dotted!r}")
            if isinstance(node[leaf], dict):
                raise ConfigError(
                    f"{dotted!r} is a config section, not a value; "
                    f"set one of its fields instead")
            node[leaf] = value
        return type(self).from_dict(payload)

    def with_updates(self, **kwargs) -> "RunConfig":
        """``dataclasses.replace`` with re-validation."""
        config = dataclasses.replace(self, **kwargs)
        config.validate()
        return config


def _section_from_dict(section_cls, section_name: str, value) -> object:
    if isinstance(value, section_cls):
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"section {section_name!r} must be a mapping")
    retired = _RETIRED_KEYS.get(section_name, ())
    value = {key: item for key, item in value.items() if key not in retired}
    unknown = set(value) - {f.name for f in fields(section_cls)}
    if unknown:
        raise ConfigError(f"unknown keys in section {section_name!r}: "
                          f"{sorted(unknown)}")
    return section_cls(**value)


def parse_override(text: str) -> tuple[str, object]:
    """Parse one ``section.key=value`` CLI override.

    Values go through JSON parsing so ``0.3`` → float, ``true`` → bool,
    ``null`` → None; anything unparsable stays a plain string.
    """
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def parse_set_args(items: list[str] | None) -> dict[str, object]:
    """Fold repeated ``--set key=value`` flags into an override dict."""
    overrides: dict[str, object] = {}
    for item in items or ():
        key, value = parse_override(item)
        overrides[key] = value
    return overrides
