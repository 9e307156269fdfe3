"""File and JSON helpers shared by the CLI and the studies module: atomic
text-file writes and the integer check for parsed JSON fields."""

from __future__ import annotations

import contextlib
import os
import secrets

__all__ = ["atomic_write", "is_json_int"]


def is_json_int(value) -> bool:
    """A JSON integer; JSON booleans parse as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


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
