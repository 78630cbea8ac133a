"""CPDG reproduction: Contrastive Pre-Training for Dynamic Graph Neural Networks.

Reproduces Bei et al., *CPDG: A Contrastive Pre-Training Method for Dynamic
Graph Neural Networks* (ICDE 2024) end-to-end on a pure-numpy substrate:

* :mod:`repro.nn` — autograd + neural layers (PyTorch substitute),
* :mod:`repro.graph` — continuous-time dynamic graph storage and queries,
* :mod:`repro.datasets` — seeded synthetic counterparts of the paper's six
  datasets plus time/field/time+field transfer splits,
* :mod:`repro.dgnn` — the memory-based DGNN framework with TGN / JODIE /
  DyRep encoders,
* :mod:`repro.core` — the CPDG contribution (samplers, contrasts, EIE),
* :mod:`repro.stream` — the streaming batch pipeline (deterministic batch
  plans, the serial producer and the forked producer children),
* :mod:`repro.baselines` — static and dynamic comparison methods,
* :mod:`repro.tasks` — downstream trainers and metrics,
* :mod:`repro.experiments` — one runner per paper table/figure,
* :mod:`repro.api` — the unified front door: :class:`~repro.api.RunConfig`
  + :class:`~repro.api.PretrainArtifact` + :class:`~repro.api.Pipeline`
  behind the ``pretrain`` / ``finetune`` / ``evaluate`` CLI.
"""

__version__ = "1.0.0"

__all__ = ["__version__", "api"]


def __getattr__(name: str):
    # Lazy so that `import repro` stays dependency-light.
    if name == "api":
        import importlib
        return importlib.import_module(".api", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
