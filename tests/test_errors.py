from __future__ import annotations

import importlib
import pkgutil

import pytest

import tonnetzlab
from tonnetzlab.errors import EXCERPT_CHARS, TonnetzlabError, clip


def _exception_classes() -> list[type]:
    """Every exception class defined in a module of the tonnetzlab package."""
    found = []
    for info in pkgutil.walk_packages(tonnetzlab.__path__, "tonnetzlab."):
        if info.name.endswith(".__main__"):  # importing it runs the command line
            continue
        module = importlib.import_module(info.name)
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        ]
    return found


_EXCEPTIONS = _exception_classes()


def test_the_walk_finds_the_domain_errors():
    names = {error.__name__ for error in _EXCEPTIONS}
    assert {"TonnetzlabError", "ChartError", "EmptyEmbedding", "CorruptHeader"} <= names


@pytest.mark.parametrize(
    "error", _EXCEPTIONS, ids=lambda error: f"{error.__module__}.{error.__name__}"
)
def test_domain_errors_share_one_base(error):
    assert issubclass(error, TonnetzlabError)
    assert issubclass(error, ValueError)


def test_clip_shows_short_printable_text_bare():
    for text in ("Verse", "Bridge 2", "♭VII", "N" * EXCERPT_CHARS):
        assert clip(text) == text
    assert clip("S" * 50) == f"{'S' * EXCERPT_CHARS}... (50 characters)"


def test_clip_escapes_line_breaks_and_control_characters():
    assert clip("Ver\nse") == "'Ver\\nse'"
    assert clip("A\rB") == "'A\\rB'"
    assert clip("\x1b[31m") == "'\\x1b[31m'"
    cut = "\t" + "S" * (EXCERPT_CHARS - 1)
    assert clip(cut + "S" * 11) == f"{cut!r}... (51 characters)"
