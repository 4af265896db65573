"""Write-then-rename: the one durability idiom every file ReSim
writes goes through.

A crash mid-write leaves the old file (or none), never a truncated
one.  The temporary file is a sibling (a rename is atomic only within
one filesystem) named per process *and* thread, so two writers of one
target — a stalled queue worker and the reclaimer that replaced it, or
two job threads of ``resim serve`` whose grids share a cache key —
never write into, rename or delete each other's temporary file.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """Yield a temporary sibling of ``path`` to write; rename it over
    ``path`` when the block succeeds, delete it when the block (or
    the rename) raises.  The parent directory must exist."""
    target = Path(path)
    tmp = target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
