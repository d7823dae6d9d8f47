"""The one read path for every user-supplied file, and the one write path
for every artifact: whole-file writes that never leave a half-written
target.

The bytes go to a sibling temporary file in the target's directory, which
``os.replace`` then renames over the target in one step. An interrupted or
failed write leaves the previous file as it was and removes the temporary
one. There is no fsync: this guards against a process that stops mid-write,
not against power loss. Every CSV is RFC 4180 (minimal quoting, CRLF row
ends) in UTF-8.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> Path:
    """Write the concatenated ``chunks`` to ``path`` atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_csv(path: str | Path, rows: Iterable[Iterable]) -> Path:
    """Write ``rows`` to ``path`` atomically as one CSV file."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return write_atomic(path, [buf.getvalue().encode("utf-8")])


def read_input(path: str | Path, what: str, error: type[Exception]) -> bytes:
    """The bytes of the regular file ``path``, or ``error`` naming ``what``
    and the path: "not found" for anything but a regular file (a FIFO would
    block), "cannot be read" for any ``OSError``."""
    path = Path(path)
    try:
        if not path.is_file():
            raise error(f"{what} not found: {path}")
        return path.read_bytes()
    except OSError as exc:
        raise error(f"{what} cannot be read ({exc.strerror}): {path}") from None


def read_input_text(
    path: str | Path, what: str, error: type[Exception], *, data: bytes | None = None
) -> str:
    """:func:`read_input`, or ``data`` when given, decoded as strict UTF-8,
    line ends untranslated."""
    if data is None:
        data = read_input(path, what, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"{exc.reason} at byte {exc.start}"
        raise error(f"{what} is not UTF-8: {Path(path)} ({where})") from None
