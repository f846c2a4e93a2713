"""Process set-up shared by the benchmark's scripts; import it first.

It puts the checkout's ``src`` on the path (the package need not be
installed), keeps bytecode caches out of ``src/`` and caps BLAS threads at
the number of usable CPUs. It imports nothing heavy, so it can run before
numpy is loaded.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # bytecode cache and temporary run directories

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare():
    """Make this process (and the processes it starts) import shieldcraft
    from the checkout. Exits with an error if the checkout has no sources."""
    if not (SRC / "shieldcraft" / "__init__.py").is_file():
        sys.exit(f"perfbench: no shieldcraft sources under {SRC}")
    cpus = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        wanted = int(value) if value.isdigit() and int(value) > 0 else cpus
        os.environ[var] = str(min(wanted, cpus))
    # a cached import is what users start with; keep the cache in WORK
    cache = str(WORK / "pycache")
    sys.pycache_prefix = cache
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = cache
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, so that a record names the code it
    measured even where there is no commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "shieldcraft").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()
