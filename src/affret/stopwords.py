"""Fixed English stop-word list, overridable by a one-token-per-line file."""

from __future__ import annotations

from pathlib import Path

from .errors import InputError, read_text

# Classic short English list (function words only, no domain terms), without
# its contractions: tokens never hold an apostrophe, so "don't" could never match.
DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at
    be because been before being below between both but by
    can cannot could
    did do does doing down during
    each few for from further
    had has have having he her here hers herself him himself his how
    i if in into is it its itself
    me more most my myself
    no nor not of off on once only or other ought our ours ourselves out
    over own
    same she should so some such
    than that the their theirs them themselves then there these they this
    those through to too
    under until up very
    was we were what when where which while who whom why with would
    you your yours yourself yourselves
    """.split()
)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stop-word file: one token per line, UTF-8, blank lines ignored.

    Entries match whole tokens (runs of letters and digits), so an entry with
    punctuation or inner whitespace never removes anything.
    """
    words = (line.strip().casefold() for line in read_text(path, InputError).split("\n"))
    return frozenset(word for word in words if word)
