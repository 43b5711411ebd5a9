"""File helpers shared by every on-disk artefact: crash-safe writes, JSON reports and typed CSV reads."""

from __future__ import annotations

import contextlib
import csv
import json
import os


def read_csv_rows(path, error: type[Exception]) -> list[list[str]]:
    """Every row of a CSV file; text the codec or the csv module (a field over its limit) rejects raises `error`."""
    try:
        with open(path, newline="") as f:
            return list(csv.reader(f))
    except (csv.Error, UnicodeDecodeError) as e:
        raise error(f"{path}: unreadable CSV: {e}") from e


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Yield a temp file beside `path`; `os.replace` it over `path` once the block ends.

    A block that raises leaves any previous file at `path` intact and removes the
    temp file, so no reader ever sees a torn artefact. The temp file lives in the
    same directory because a rename is only atomic within one file system.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc) -> None:
    """Write `doc` atomically as indented, key-sorted JSON ending in a newline."""
    with atomic_write(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
