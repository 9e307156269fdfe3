"""Helpers shared across the package: atomic text-file writes and the
integer and number checks of arguments, JSON and study-config values."""

from __future__ import annotations

import contextlib
import numbers
import os
import secrets

__all__ = ["atomic_write", "check_int", "is_int", "is_number"]


def is_int(value) -> bool:
    """A Python or numpy integer, never a bool (JSON booleans parse as bool)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, low: int) -> None:
    """Raise ValueError, its message starting with ``name``, unless
    ``value`` is an integer (see is_int) of at least ``low``."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def is_number(value) -> bool:
    """A real number, integer or not; booleans and numeric strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a uniquely named temporary file in
    the same directory, renamed over ``path`` only once it is complete.

    Concurrent writers to one path never share a temporary file, readers
    see the old or the new content but never a partial one, and a failed
    write removes its temporary file.  The text is written verbatim (no
    newline translation).  Raises OSError on failure.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    # O_EXCL makes the name ours alone; mode 0o666 lets the umask set the
    # permissions, as a plain open() would (tempfile.mkstemp forces 0o600).
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fd = -1
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if fd >= 0:
            os.close(fd)
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
