"""Named dataset registry — the six paper datasets, scaled for CPU.

Every entry is deterministic given its seed.  Sizes are scaled down ~100×
from the paper (the substrate is a numpy simulator, not an A100 cluster);
the ``DatasetScale`` presets below record the mapping.  Relative
characteristics follow paper Tables V/VI:

* Amazon-like fields are *sparser* than Gowalla-like fields,
* MOOC is the densest of the classification datasets, Wikipedia the
  sparsest,
* Meituan is a dense 42-day stream without field structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.events import EventStream
from .fields import FieldedUniverse, FieldSpec
from .generators import BipartiteInteractionGenerator, InteractionConfig
from .labeled import LabeledConfig, LabeledInteractionGenerator

__all__ = [
    "amazon_universe", "gowalla_universe", "meituan_stream",
    "labeled_stream", "LABELED_DATASETS", "DEFAULT_SPLIT_TIME",
    "DatasetScale", "SMALL", "MEDIUM",
]

DEFAULT_SPLIT_TIME = 60.0


@dataclass(frozen=True)
class DatasetScale:
    """Uniform scaling knobs so tests can run on tiny instances."""

    num_users: int = 100
    num_items: int = 60
    events_main: int = 2600
    events_source: int = 3200
    events_labeled: int = 3000

    def scaled(self, factor: float) -> "DatasetScale":
        return DatasetScale(
            num_users=max(20, int(self.num_users * factor)),
            num_items=max(15, int(self.num_items * factor)),
            events_main=max(200, int(self.events_main * factor)),
            events_source=max(240, int(self.events_source * factor)),
            events_labeled=max(200, int(self.events_labeled * factor)),
        )


SMALL = DatasetScale(num_users=40, num_items=24, events_main=500,
                     events_source=600, events_labeled=500)
MEDIUM = DatasetScale()


def amazon_universe(scale: DatasetScale = MEDIUM, seed: int = 101) -> FieldedUniverse:
    """Amazon Review analogue: sparse review stream, 3 fields.

    Fields mirror the paper's Beauty / Luxury (targets) and
    Arts, Crafts and Sewing (transfer source).  Beauty is more
    temporally bursty (the paper finds temporal contrast matters most
    there, Fig. 5/6); Luxury is more structural.
    """
    base = InteractionConfig(
        num_users=scale.num_users,
        num_items=scale.num_items,
        num_events=scale.events_main,
        num_communities=4,
        preference_scale=4.0,
        burst_rate=1.5,
        activity_exponent=1.1,
    )
    fields = [
        FieldSpec("beauty", rotation=0.0, num_events=scale.events_main,
                  burst_strength=4.5),
        FieldSpec("luxury", rotation=0.35, num_events=scale.events_main,
                  burst_strength=2.0),
        FieldSpec("arts", rotation=0.45, num_events=scale.events_source,
                  burst_strength=3.0),
    ]
    return FieldedUniverse(base, fields, seed=seed)


def gowalla_universe(scale: DatasetScale = MEDIUM, seed: int = 202) -> FieldedUniverse:
    """Gowalla analogue: denser check-in stream, 3 fields.

    Entertainment / Outdoors (targets) and Food (transfer source), denser
    than Amazon per paper Table V.
    """
    base = InteractionConfig(
        num_users=scale.num_users,
        num_items=scale.num_items,
        num_events=int(scale.events_main * 1.4),
        num_communities=5,
        preference_scale=3.5,
        burst_rate=2.0,
        activity_exponent=1.3,
    )
    fields = [
        FieldSpec("entertainment", rotation=0.0,
                  num_events=int(scale.events_main * 1.4), burst_strength=3.5),
        FieldSpec("outdoors", rotation=0.3,
                  num_events=int(scale.events_main * 1.4), burst_strength=3.0),
        FieldSpec("food", rotation=0.4,
                  num_events=int(scale.events_source * 1.5), burst_strength=3.0),
    ]
    return FieldedUniverse(base, fields, seed=seed)


def meituan_stream(scale: DatasetScale = MEDIUM, seed: int = 303) -> EventStream:
    """Meituan analogue: dense industrial click/purchase stream, 42 'days'."""
    config = InteractionConfig(
        num_users=scale.num_users,
        num_items=int(scale.num_items * 0.8),
        num_events=int(scale.events_main * 1.6),
        num_communities=4,
        time_span=42.0,
        burst_rate=2.5,
        burst_duration_frac=0.05,
        burst_strength=4.0,
        preference_scale=3.0,
        activity_exponent=1.2,
    )
    return BipartiteInteractionGenerator(config, seed=seed).generate(name="meituan")


_LABELED_SPECS = {
    # Thresholds are calibrated so every chronological split keeps both
    # label classes from SMALL up to MEDIUM scale.
    "wikipedia": dict(events_mult=0.85, deviant_fraction=0.25,
                      threshold_mean=1.2, susceptible=0.5, seed=404,
                      recovery=0.6, decay=0.2, refreshes=3),
    "mooc": dict(events_mult=1.3, deviant_fraction=0.3,
                 threshold_mean=1.8, susceptible=0.6, seed=505,
                 recovery=0.5, decay=0.12, refreshes=2),
    "reddit": dict(events_mult=1.15, deviant_fraction=0.25,
                   threshold_mean=1.6, susceptible=0.45, seed=606,
                   recovery=0.6, decay=0.2, refreshes=3),
}

LABELED_DATASETS = tuple(_LABELED_SPECS)


def labeled_stream(name: str, scale: DatasetScale = MEDIUM,
                   seed: int | None = None) -> EventStream:
    """Wikipedia / MOOC / Reddit analogue with dynamic node labels."""
    if name not in _LABELED_SPECS:
        raise KeyError(f"unknown labeled dataset {name!r}; have {LABELED_DATASETS}")
    spec = _LABELED_SPECS[name]
    base = InteractionConfig(
        num_users=scale.num_users,
        num_items=int(scale.num_items * 0.7),
        num_events=int(scale.events_labeled * spec["events_mult"]),
        num_communities=4,
        time_span=30.0,
        burst_rate=2.0,
        burst_duration_frac=0.06,
        burst_strength=3.5,
        preference_scale=3.0,
    )
    config = LabeledConfig(
        base=base,
        deviant_fraction=spec["deviant_fraction"],
        threshold_mean=spec["threshold_mean"],
        threshold_std=0.6,
        susceptible_fraction=spec["susceptible"],
        recovery_factor=spec["recovery"],
        strain_decay=spec["decay"],
        deviant_refreshes=spec["refreshes"],
    )
    generator = LabeledInteractionGenerator(config, seed=seed if seed is not None else spec["seed"])
    return generator.generate(name=name)
