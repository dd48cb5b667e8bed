"""Atomic text-file writes shared by the library writers and the CLI."""

from __future__ import annotations

import json
import os
from pathlib import Path


def _write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling ``.tmp`` file and a rename.

    Readers see either the old file or the complete new one, never a
    partial write. On any failure the ``.tmp`` file is removed and the
    error re-raised; an existing file at ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON, atomically.

    The encoding is strict: a NaN or infinite float raises ValueError
    before anything is written, so no output holds ``NaN`` or ``Infinity``,
    which are not JSON.
    """
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path} not written: a value is not finite ({exc})") from exc
    _write_atomic(path, text + "\n")
