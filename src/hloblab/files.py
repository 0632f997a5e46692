"""Atomic writes and checked JSON reads of the artifacts stages share."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import IoFailure

TEMP_NAME = ".{}.{}.tmp"    # write_atomic's temporary file: .<name>.<pid>.tmp


def write_atomic(path, data) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new one.

    ``data`` is text, written as UTF-8, or any bytes-like object. It goes to
    a temporary file next to ``path``, which then replaces it; on any
    failure the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(TEMP_NAME.format(path.name, os.getpid()))
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path, fields: dict[str, type], data: bytes | None = None) -> dict:
    """The JSON object stored in ``path``, or in ``data`` read from it.

    ``fields`` maps each key the object must hold to its type. Text that
    is not JSON, a value that is not an object, a missing key or a value of
    another type raises :class:`IoFailure` naming ``path``; a JSON boolean
    is not an int, though Python's ``bool`` is one.
    """
    try:
        obj = json.loads(Path(path).read_bytes() if data is None else data)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise IoFailure(f"corrupt {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise IoFailure(f"corrupt {path}: not a JSON object")
    for key, kind in fields.items():
        if key not in obj:
            raise IoFailure(f"corrupt {path}: no '{key}'")
        value = obj[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise IoFailure(f"corrupt {path}: '{key}' is not of type {kind.__name__}")
    return obj
