"""Build and load the native DES kernel (``_kernel.c``).

The kernel is compiled with the system C compiler (``cc``) the first
time :mod:`repro.simulate` is imported -- never inside a run -- and the
shared object is cached in this package's ``__pycache__`` under a name
keyed by a hash of the source, the compile flags and the interpreter's
extension suffix, so an edit, a flag change or another Python version
builds a fresh copy.  The build writes a temporary file and renames it
into place, so concurrent imports never load a half-written object, and
then deletes the builds it supersedes: other ``_kernel-*`` objects with
the same extension suffix (another Python version's builds stay).

If the kernel cannot be built (no compiler, no Python headers, a compile
error), :data:`kernel` is ``None`` and :data:`error` says why; the
package then defaults to the legacy engine.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path
from types import ModuleType

__all__ = ["FLAGS", "kernel", "error", "require"]

SOURCE = Path(__file__).with_name("_kernel.c")
#: No fast-math and no FMA contraction: every cost expression must round
#: exactly like the pure-Python oracle's.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")


SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _target() -> Path:
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(" ".join(FLAGS).encode())
    h.update(SUFFIX.encode())
    return SOURCE.parent / "__pycache__" / f"_kernel-{h.hexdigest()[:16]}{SUFFIX}"


def _build(target: Path) -> None:
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler ('cc') on PATH")
    target.parent.mkdir(exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    include = sysconfig.get_paths()["include"]
    cmd = [cc, *FLAGS, f"-I{include}", str(SOURCE), "-o", str(tmp)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"'cc' failed: {proc.stderr.strip()[-2000:]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in target.parent.glob(f"_kernel-*{SUFFIX}"):
        if stale != target:
            stale.unlink(missing_ok=True)


def load() -> ModuleType:
    """Build (if not cached) and import the kernel module."""
    target = _target()
    if not target.exists():
        _build(target)
    spec = importlib.util.spec_from_file_location(
        "repro.simulate._kernel", target
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kernel: ModuleType | None
error: str | None
try:
    kernel, error = load(), None
except Exception as exc:  # any build/load failure means "no kernel"
    kernel, error = None, str(exc) or type(exc).__name__


def require() -> None:
    """Raise a ``RuntimeError`` naming the build failure if the kernel
    is missing (an explicit ``engine="vectorized"`` cannot run)."""
    if kernel is None:
        raise RuntimeError(
            "engine='vectorized' needs the native DES kernel, which could "
            f"not be built ({error}); use engine='legacy'"
        )
