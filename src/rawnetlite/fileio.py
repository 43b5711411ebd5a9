"""Shared helpers: crash-safe writes, JSON reports, typed CSV reads, and the one config field check."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import typing


class ConfigError(ValueError):
    """A config value of the wrong type or out of range; the CLI exits 1."""


def fits(value, hint) -> bool:
    """Whether a value fits an annotation; a bool is no int, an int is a float, nan and inf are not."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X] is Union[X, None]
        return any(fits(value, a) for a in args)
    if origin is typing.Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin is tuple:  # tuple[X, Y] or tuple[X, ...]
        items = args[:1] * len(value) if isinstance(value, tuple) and args[-1] is Ellipsis else args
        return isinstance(value, tuple) and len(value) == len(items) and all(map(fits, value, items))
    if origin is dict:
        return isinstance(value, dict) and all(fits(k, args[0]) and fits(v, args[1]) for k, v in value.items())
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max  # False for nan
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _describe(hint) -> str:
    """An annotation in the words of a config error: Optional[int] is 'an integer or null', a tuple a list."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, typing.Literal):  # each type, or each allowed value
        return " or ".join(map(_describe if origin is typing.Union else repr, args))
    if origin in (tuple, dict):  # tuple[X, ...] is a list of any number of X
        names = [getattr(a, "__name__", "...") for a in args]
        return f"a list of {', '.join(names)}" if origin is tuple else f"a mapping of {names[0]} to {names[1]}"
    nouns = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", type(None): "null"}
    return nouns.get(hint, hint.__name__)


def check_fields(config) -> None:
    """Raise ConfigError for the first field of a config dataclass whose value does not fit its annotation."""
    for name, hint in typing.get_type_hints(type(config)).items():  # a config annotates its fields only
        if not fits(value := getattr(config, name), hint):
            raise ConfigError(f"{name} must be {_describe(hint)}, got {value!r}")


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
