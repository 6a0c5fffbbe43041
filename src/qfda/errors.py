"""Exception types shared across the package, its one text-file reader and
writer, and the comment rule of its `key = value` files."""

import re
from pathlib import Path


class QfdaError(Exception):
    """Base class for all package errors."""


class FormatError(QfdaError):
    """A file does not match its declared format (bad magic, bad header)."""


class ConsistencyError(QfdaError):
    """Inputs that must agree do not (counts, dimensions, labels)."""


class SizeError(QfdaError):
    """An image or dataset is too small to process."""


class SplitError(QfdaError):
    """A class is too small to split into nonempty train/val/test parts."""


class DataError(QfdaError):
    """An operation received empty or degenerate data."""


class NumericError(QfdaError):
    """A matrix factorization or eigensolve failed."""


class OptimizationError(QfdaError):
    """Every cost evaluation in an optimization run failed."""


def read_text(path) -> str:
    """A UTF-8 file's text; undecodable bytes raise FormatError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with "\\n" newlines, whatever the platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def strip_comment(line: str) -> str:
    """A line without its comment: `#` starts one only at line start or after
    whitespace, so `run#2` keeps its `#`."""
    return re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
