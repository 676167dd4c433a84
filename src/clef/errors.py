"""Shared exception types, the JSON artifact reader and writer, and the
16-hex id of a hash; the CLI maps the exceptions onto exit codes."""

import json
from contextlib import contextmanager


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


@contextmanager
def parsing(path):
    """``path`` opened for reading; malformed content (not JSON, a missing
    key, a value of the wrong type) is a ``DataError`` naming the file."""
    with open(path) as fh:
        try:
            yield fh
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed ({exc!r})") from None


def write_json(path, obj) -> None:
    """``obj`` as every JSON artifact is written: keys sorted, indent 1."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def short_id(h) -> str:
    """The 16-hex id that manifests and checkpoints record for a sha256."""
    return h.hexdigest()[:16]
