"""Discrete-event simulator of a distributed-memory message-passing machine.

Substitutes for the paper's physical testbed (NERSC Edison, Cray XC30):
rank-level CPU and NIC resources, a hierarchical network with seeded
inhomogeneity, MPI-like asynchronous point-to-point messaging, and
per-rank communication-volume accounting.
"""

from .engine import Simulator
from .machine import CommStats, Machine, Message, TraceEvent
from .network import Network, NetworkConfig
from .vec import VecCommStats, VecMachine, VecSimulator

#: The DES engine every entry point uses unless ``engine=`` says
#: otherwise (``SimulatedPSelInv``, ``ExperimentSpec``, the runner's tree
#: caches and the CLI ``--engine`` option all read this one constant).
DEFAULT_ENGINE = "vectorized"
#: Every selectable engine; outcomes are bit-identical across them.
#: ``"legacy"`` (heapq :class:`Simulator` + :class:`Machine`) is the
#: oracle the default is checked against.
ENGINES = (DEFAULT_ENGINE, "legacy")


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "check_engine",
    "CommStats",
    "Machine",
    "Message",
    "Network",
    "NetworkConfig",
    "Simulator",
    "TraceEvent",
    "VecCommStats",
    "VecMachine",
    "VecSimulator",
]
