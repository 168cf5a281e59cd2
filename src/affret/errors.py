"""Exception types shared across the pipeline, the one reader of text input files, and the dial and count checks."""

from __future__ import annotations

from pathlib import Path


class AffretError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AffretError):
    """Raw document bytes could not be decoded into a character stream."""


class LexiconFormatError(AffretError):
    """Lexicon file violates the one-topic-per-line format."""


class CaseBaseFormatError(AffretError):
    """Case base file is truncated or structurally invalid."""


class CaseBaseBuildError(AffretError):
    """Corpus build produced no admissible cases."""


class CompatibilityError(AffretError):
    """Case base was built against a different lexicon or stop-word list than the active one."""


class QueryFormatError(AffretError):
    """Query or qrels file violates its expected format."""


class DimensionError(AffretError):
    """Vector operands have mismatched lengths."""


class InputError(AffretError):
    """Caller-supplied data violates an operation's preconditions."""


def check_unit_dial(name: str, value: object) -> None:
    """Raise ``InputError`` unless ``value`` is a number in [0, 1]; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise InputError(f"{name} must lie in [0, 1]")


def check_count(name: str, value: object) -> None:
    """Raise ``InputError`` unless ``value`` is an integer >= 1; a bool is not an integer."""
    if type(value) is not int or value < 1:
        raise InputError(f"{name} must be an integer >= 1")


def read_text(path: str | Path, error_type: type[AffretError]) -> str:
    """A text file's contents, newlines read as ``\\n``; one that is not UTF-8 raises ``error_type`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error_type(f"{path}: not UTF-8 ({exc})") from exc
