"""The four named workloads, each a driver over the program's public API."""

from .serve import ServeIngest, ServeRead
from .training import PretrainHub, TransferE2E

WORKLOADS = {cls.name: cls for cls in (PretrainHub, TransferE2E, ServeRead,
                                       ServeIngest)}
