"""The one base class of every tonnetzlab domain error.

This module imports nothing, so any module can raise and the command line can
catch domain errors without loading the audio stack (and numpy with it).
"""


class TonnetzlabError(ValueError):
    """Input that tonnetzlab rejects; the command line reports it on one line and exits 2."""


EXCERPT_CHARS = 40  # longest piece of input an error line repeats whole


def excerpt(text: str) -> str:
    """``repr`` of input text for an error line; long text is cut to a prefix.

    A cut text is shown as its first ``EXCERPT_CHARS`` characters and its
    length, so that one bad token cannot make the error line arbitrarily long.
    """
    if len(text) <= EXCERPT_CHARS:
        return repr(text)
    return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"
