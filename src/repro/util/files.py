"""Atomic file replacement."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: Path, *chunks: bytes) -> None:
    """Replace ``path`` with the concatenation of ``chunks``, atomically.

    The chunks go to a temporary file in ``path``'s directory (created if
    missing), which then replaces ``path`` in one ``os.replace``; on any
    failure the temporary file is removed and ``path`` is left as it was.
    A killed writer therefore never leaves a torn file.  Nothing is
    synced to disk: the write is atomic, not durable across a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
