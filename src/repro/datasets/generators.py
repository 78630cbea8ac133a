"""Synthetic CTDG generators substituting for the paper's raw datasets.

The paper evaluates on Amazon Review, Gowalla, Meituan, Wikipedia, MOOC and
Reddit — all bipartite user-item interaction streams.  Those dumps are not
available offline, so this module builds seeded synthetic equivalents whose
*generative mechanisms* match the phenomena the paper's method exploits:

* **long-term stable patterns** — each user has a fixed latent preference
  vector; item affinity from the dot product is stationary over the whole
  stream (what DGNN memory should capture);
* **short-term fluctuating patterns** — items receive transient popularity
  bursts in random time windows, shifting interaction mass toward burst
  items while a burst is live (what CPDG's temporal contrast should
  capture, paper §I challenge 2);
* **discriminative structural patterns** — users and items belong to latent
  communities, so ego-subgraphs are community-typed (what the structural
  contrast should capture);
* **field structure** — fields share community archetypes under a
  field-specific mixing rotation, making field transfer useful but harder
  than time transfer (paper Table VII ordering).

Everything is driven by one ``numpy`` generator seeded per dataset, so all
experiments are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.events import EventStream

__all__ = ["InteractionConfig", "BipartiteInteractionGenerator", "SharedUsers"]


@dataclass
class SharedUsers:
    """A user population shared by several field generators.

    ``community`` gives each user's latent community, ``pref`` the stable
    preference vectors (the long-term pattern), ``activity`` the Zipf
    activity distribution.
    """

    community: np.ndarray
    pref: np.ndarray
    activity: np.ndarray


@dataclass
class InteractionConfig:
    """Knobs of the bipartite interaction process.

    Attributes
    ----------
    num_users, num_items:
        Bipartite partition sizes; node ids are users then items.
    num_events:
        Stream length.
    num_communities:
        Latent communities shared by users and items.
    latent_dim:
        Dimension of latent preference/item vectors.
    time_span:
        Events are placed on ``[0, time_span)``.
    burst_rate:
        Expected number of popularity bursts per item over the stream.
    burst_duration_frac:
        Burst window length as a fraction of ``time_span`` (short-term!).
    burst_strength:
        Additive logit boost while an item's burst is live.
    preference_scale:
        Weight of the stable user-item affinity term (long-term signal).
    field_rotation:
        Angle (radians) applied to community archetypes — distinct per
        field; 0 keeps the canonical archetypes.
    activity_exponent:
        Zipf exponent of per-user activity (heavier tail → more skew).
    candidate_size:
        Item candidates scored per event draw (Monte-Carlo softmax).
    noise_scale:
        Gumbel noise scale on item choice.
    edge_feat_dim:
        Dimension of the synthetic edge features (0 disables them).
    """

    num_users: int = 120
    num_items: int = 80
    num_events: int = 4000
    num_communities: int = 4
    latent_dim: int = 8
    time_span: float = 100.0
    burst_rate: float = 1.5
    burst_duration_frac: float = 0.04
    burst_strength: float = 3.0
    preference_scale: float = 4.0
    field_rotation: float = 0.0
    activity_exponent: float = 1.2
    candidate_size: int = 40
    noise_scale: float = 0.5
    edge_feat_dim: int = 4

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def item_id(self, item_index: int) -> int:
        """Global node id of the ``item_index``-th item."""
        return self.num_users + item_index


class BipartiteInteractionGenerator:
    """Seeded generator of bipartite interaction streams.

    Usage::

        gen = BipartiteInteractionGenerator(InteractionConfig(), seed=7)
        stream = gen.generate(name="amazon-beauty")
    """

    def __init__(self, config: InteractionConfig, seed: int,
                 shared_users: "SharedUsers | None" = None,
                 item_node_offset: int | None = None,
                 total_num_nodes: int | None = None):
        """``shared_users`` injects a common user population (multi-field
        universes share users across fields); ``item_node_offset`` and
        ``total_num_nodes`` place this field's items inside a larger global
        node id space."""
        self.config = config
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._item_node_offset = (config.num_users if item_node_offset is None
                                  else item_node_offset)
        self._total_num_nodes = (config.num_nodes if total_num_nodes is None
                                 else total_num_nodes)
        self._build_latents()
        if shared_users is not None:
            if shared_users.pref.shape != (config.num_users, config.latent_dim):
                raise ValueError("shared user latents do not match config")
            self.user_community = shared_users.community
            self.user_pref = shared_users.pref
            self.user_activity = shared_users.activity

    # ------------------------------------------------------------------
    # latent state
    # ------------------------------------------------------------------
    def _build_latents(self) -> None:
        cfg = self.config
        rng = self._rng
        # Community archetypes shared across fields, then rotated per field
        # in the leading 2-D plane so fields overlap partially.
        archetypes = rng.normal(0.0, 1.0, size=(cfg.num_communities, cfg.latent_dim))
        if cfg.field_rotation != 0.0:
            c, s = np.cos(cfg.field_rotation), np.sin(cfg.field_rotation)
            rotation = np.eye(cfg.latent_dim)
            rotation[0, 0], rotation[0, 1] = c, -s
            rotation[1, 0], rotation[1, 1] = s, c
            archetypes = archetypes @ rotation.T
        self.archetypes = archetypes

        self.user_community = rng.integers(0, cfg.num_communities, size=cfg.num_users)
        self.item_community = rng.integers(0, cfg.num_communities, size=cfg.num_items)
        self.user_pref = (archetypes[self.user_community]
                          + 0.4 * rng.normal(size=(cfg.num_users, cfg.latent_dim)))
        self.item_vec = (archetypes[self.item_community]
                         + 0.4 * rng.normal(size=(cfg.num_items, cfg.latent_dim)))
        self.item_base_pop = rng.normal(0.0, 0.5, size=cfg.num_items)

        # Zipf-like user activity.
        ranks = np.arange(1, cfg.num_users + 1, dtype=np.float64)
        weights = ranks ** (-cfg.activity_exponent)
        rng.shuffle(weights)
        self.user_activity = weights / weights.sum()

        # Popularity bursts: (item, start, end, strength) tuples.
        self.bursts = self._schedule_bursts()

    def _schedule_bursts(self) -> list[tuple[int, float, float, float]]:
        cfg = self.config
        rng = self._rng
        bursts = []
        duration = cfg.burst_duration_frac * cfg.time_span
        for item in range(cfg.num_items):
            count = rng.poisson(cfg.burst_rate)
            for _ in range(count):
                start = rng.uniform(0.0, cfg.time_span - duration)
                strength = cfg.burst_strength * rng.uniform(0.6, 1.4)
                bursts.append((item, start, start + duration, strength))
        return bursts

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, name: str = "synthetic") -> EventStream:
        """Draw the full event stream."""
        cfg = self.config
        rng = self._rng
        times = np.sort(rng.uniform(0.0, cfg.time_span, size=cfg.num_events))
        users = rng.choice(cfg.num_users, size=cfg.num_events, p=self.user_activity)
        items = np.empty(cfg.num_events, dtype=np.int64)

        # Precompute an index of live bursts sorted by start for speed.
        burst_items = np.array([b[0] for b in self.bursts], dtype=np.int64)
        burst_starts = np.array([b[1] for b in self.bursts])
        burst_ends = np.array([b[2] for b in self.bursts])
        burst_strengths = np.array([b[3] for b in self.bursts])

        n_candidates = min(cfg.candidate_size, cfg.num_items)
        for k in range(cfg.num_events):
            t = times[k]
            user = users[k]
            candidates = rng.choice(cfg.num_items, size=n_candidates, replace=False)
            scores = (cfg.preference_scale
                      * self.item_vec[candidates] @ self.user_pref[user]
                      + self.item_base_pop[candidates])
            if len(burst_items):
                live = (burst_starts <= t) & (t < burst_ends)
                if live.any():
                    live_boost = np.zeros(cfg.num_items)
                    np.add.at(live_boost, burst_items[live], burst_strengths[live])
                    scores = scores + live_boost[candidates]
            gumbel = rng.gumbel(0.0, cfg.noise_scale, size=n_candidates)
            items[k] = candidates[np.argmax(scores + gumbel)]

        edge_feats = None
        if cfg.edge_feat_dim > 0:
            # Features correlate with the item community so structure is
            # observable from edges, plus noise.
            basis = rng.normal(size=(cfg.num_communities, cfg.edge_feat_dim))
            edge_feats = (basis[self.item_community[items]]
                          + 0.5 * rng.normal(size=(cfg.num_events, cfg.edge_feat_dim)))

        return EventStream(
            src=users.astype(np.int64),
            dst=(items + self._item_node_offset).astype(np.int64),
            timestamps=times,
            num_nodes=self._total_num_nodes,
            edge_feats=edge_feats,
            name=name,
            metadata={
                "num_users": cfg.num_users,
                "num_items": cfg.num_items,
                "seed": self.seed,
                "field_rotation": cfg.field_rotation,
            },
        )
