"""The machine and software a result was measured on.

Read-only: CPU facts come from /proc and /sys, the BLAS thread count from
the BLAS library numpy has loaded. Nothing here changes a setting; a fact
that cannot be read is recorded as null.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

import numpy as np
import scipy


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as f:
            return f.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for idx in entries:
        level = _read(os.path.join(base, idx, "level"))
        kind = _read(os.path.join(base, idx, "type"))
        size = _read(os.path.join(base, idx, "size"))
        if level and size and kind and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _mem_total() -> str | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return line.split(":", 1)[1].strip()
    return None


def _blas() -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and "/" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: str) -> str | None:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or ""
                 ).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha(root: str) -> str:
    """SHA-256 over the paths and contents of the program's source files,
    so results from different code can be told apart in or out of git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()


def record(root: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha": _source_sha(root),
    }
