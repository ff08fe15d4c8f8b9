"""The one base class of every tonnetzlab domain error, and the one error line.

This module imports nothing, so any module can raise and the command line can
catch domain errors without loading the audio stack (and numpy with it).
Every exit-2 line is made by ``error_line``, so a raise site repeats input bare.
"""


class TonnetzlabError(ValueError):
    """Input that tonnetzlab rejects; the command line reports it on one line and exits 2."""


EXCERPT_CHARS = 40  # longest piece of input an error line repeats whole


def error_line(error: object) -> str:
    """The one stderr line reporting ``error``, each unprintable character ``repr``-escaped."""
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(error))
    return f"tonnetzlab: error: {text}\n"


def excerpt(text: str) -> str:
    """``repr`` of input text for an error line; long text is cut to a prefix.

    A cut text is shown as its first ``EXCERPT_CHARS`` characters and its
    length, so that one bad token cannot make the error line arbitrarily long.
    """
    if len(text) <= EXCERPT_CHARS:
        return repr(text)
    return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"


def clip(text: str) -> str:
    """Input text for an error line that shows it bare, such as a section name.

    Text of up to ``EXCERPT_CHARS`` characters comes whole; longer text is cut
    to its first ``EXCERPT_CHARS`` characters and its length, as in ``excerpt``.
    """
    if len(text) <= EXCERPT_CHARS:
        return text
    return f"{text[:EXCERPT_CHARS]}... ({len(text)} characters)"
