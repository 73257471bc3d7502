"""Discrete-event simulator of a distributed-memory message-passing machine.

Substitutes for the paper's physical testbed (NERSC Edison, Cray XC30):
rank-level CPU and NIC resources, a hierarchical network with seeded
inhomogeneity, MPI-like asynchronous point-to-point messaging, and
per-rank communication-volume accounting.
"""

import sys

from . import _native
from .engine import Simulator
from .machine import CommStats, Machine, Message, TraceEvent
from .network import Network, NetworkConfig
from .vec import VecCommStats, VecMachine, VecSimulator

#: Every selectable engine; outcomes are bit-identical across them.
#: ``"vectorized"`` runs on the native kernel (``_kernel.c``, built with
#: the system C compiler on first import); ``"legacy"`` (heapq
#: :class:`Simulator` + :class:`Machine`) is the pure-Python oracle it is
#: checked against.
ENGINES = ("vectorized", "legacy")
#: The DES engine every entry point uses unless ``engine=`` says
#: otherwise (``SimulatedPSelInv``, ``ExperimentSpec`` and the CLI
#: ``--engine`` option all read this one constant, and
#: ``SimulatedPSelInvUnsym`` builds its machine):
#: the vectorized engine, or the legacy one if the kernel cannot be built.
DEFAULT_ENGINE = "vectorized" if _native.kernel is not None else "legacy"
if _native.kernel is None:
    print(
        "repro: the native DES kernel could not be built "
        f"({_native.error}); falling back to engine='legacy'",
        file=sys.stderr,
    )


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is one of :data:`ENGINES`,
    and ``RuntimeError`` for ``"vectorized"`` when its kernel is
    missing."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "vectorized":
        _native.require()


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
