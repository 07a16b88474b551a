"""Build-on-first-use loader for the compiled batch scan kernel.

:func:`load` compiles ``scan_kernel.c`` (shipped next to this module) with
the system C compiler into ``$XDG_CACHE_HOME/fabp-repro`` (default
``~/.cache/fabp-repro``) and loads it through :mod:`ctypes`.  The cached
library is keyed on the source, the compile flags and the host CPU's
feature flags, because ``-march=native`` code is only valid on the CPU it
was built for.  Each build goes to a temporary file that is renamed into
place, so processes racing to build never load a half-written library.

Any failure — no compiler, a failed build, a library that will not load —
returns ``None`` and the caller keeps its NumPy path; nothing is raised.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import tempfile
from pathlib import Path
from typing import Optional

#: Words of alignment positions one kernel tile holds in registers
#: (512 positions).  A tile writes at most this many words' hits, which
#: bounds the hit room a fold needs.
TILE_WORDS = 8

#: Words of alignment positions per plane block of a scan task (32,768
#: positions): the kernel builds one block's match planes from the image
#: and folds every query of the task over them before building the next,
#: so a pass's planes (about 4 KiB per distinct instruction) stay in L2.
BLOCK_WORDS = 512

SOURCE = Path(__file__).with_name("scan_kernel.c")

FLAGS = (
    "-O3", "-march=native", "-fPIC", "-shared",
    f"-DTILE_WORDS={TILE_WORDS}", f"-DBLOCK_WORDS={BLOCK_WORDS}",
)

#: Longest a build may take before it counts as failed.
BUILD_TIMEOUT_SECONDS = 120.0


def cache_dir() -> Path:
    """Where built libraries are kept."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "fabp-repro"


def _cpu_flags() -> str:
    """The host CPU's feature flags (Linux), else the machine description."""
    try:
        with open("/proc/cpuinfo", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def library_path(source: bytes) -> Path:
    """The cache entry for ``source`` built with :data:`FLAGS` on this CPU."""
    digest = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(), _cpu_flags().encode()):
        digest.update(part)
        digest.update(b"\0")
    return cache_dir() / f"scan_kernel-{digest.hexdigest()[:20]}.so"


def _build(compiler: str, source: Path, target: Path) -> bool:
    import subprocess  # only a cache miss starts the compiler

    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", temp, str(source)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=BUILD_TIMEOUT_SECONDS,
            check=False,
        )
        if done.returncode != 0:
            return False
        os.replace(temp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built with ``cc`` on ``PATH`` if not cached.

    ``None`` when it is not cached and cannot be built, or will not load.
    """
    try:
        target = library_path(SOURCE.read_bytes())
        if not target.exists():
            compiler = shutil.which("cc")
            if compiler is None or not _build(compiler, SOURCE, target):
                return None
        library = ctypes.CDLL(str(target))
    except OSError:
        return None
    pointer, size = ctypes.c_void_p, ctypes.c_int64
    library.fabp_build_planes.argtypes = [
        pointer, size, size, pointer, size, pointer, size, size,
    ]
    library.fabp_build_planes.restype = None
    library.fabp_scan_task.argtypes = [
        pointer, size, pointer, size, pointer, size, pointer, pointer, pointer,
        size, pointer, pointer, pointer, size, pointer, pointer,
    ]
    library.fabp_scan_task.restype = size
    return library
