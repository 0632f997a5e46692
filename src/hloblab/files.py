"""Atomic file replacement, shared by every stage that writes an artifact."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new one.

    ``data`` is text, written as UTF-8, or any bytes-like object. It goes to
    a temporary file next to ``path``, which then replaces it; on any
    failure the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
