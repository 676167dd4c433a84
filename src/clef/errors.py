"""Shared exception types; the CLI maps these onto exit codes."""

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
