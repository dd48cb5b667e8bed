"""JSON and text-file I/O and the input-number rules shared by the library and the CLI.

Writes are atomic: a sibling ``.tmp`` file, then a rename. Reads of a JSON
file raise the caller's own error type naming the file when its text is
not JSON, and ``_is_finite_number`` is the one check of a JSON number.
Beside it sit the one rule each for an input that must be positive
(``_positive``), finite and non-negative (``_nonnegative``) or a count
(``_count``), each raising ValueError with its one message. The module
needs only the standard library, so the design half stays numpy-free.
"""

from __future__ import annotations

import json
import math
import numbers
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


def _read_json(path: str | Path, error: type[ValueError]):
    """Parse the JSON file at ``path``.

    Any ValueError while reading or parsing (bad JSON, bytes that do not
    decode, an integer past Python's digit limit) is raised as ``error``
    naming the file. An OSError, a missing file say, propagates as it is.
    """
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def _is_finite_number(value) -> bool:
    """True for an int or float, not a bool, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def _nonnegative(name: str, value) -> None:
    """Raise ValueError unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integral number, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
