from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import tonnetzlab
from tonnetzlab.errors import EXCERPT_CHARS, TonnetzlabError, clip, error_line


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


def test_error_line_escapes_line_breaks_and_control_characters():
    assert error_line("Ver\nse") == "tonnetzlab: error: Ver\\nse\n"
    assert error_line("A\rB") == "tonnetzlab: error: A\\rB\n"
    assert error_line("\x1b[31m") == "tonnetzlab: error: \\x1b[31m\n"
    cut = "\t" + "S" * (EXCERPT_CHARS - 1)
    assert error_line(clip(cut + "S" * 11)) == (
        f"tonnetzlab: error: \\t{'S' * (EXCERPT_CHARS - 1)}... (51 characters)\n"
    )


def test_error_line_escapes_every_unprintable_character_and_keeps_the_rest():
    assert error_line("\x85 \u2028 \u202e \udc85 \x7f") == (
        "tonnetzlab: error: \\x85 \\u2028 \\u202e \\udc85 \\x7f\n"
    )
    printable = "no section [♭VII 'x' \\n]; chart defines: Verse"
    assert error_line(printable) == f"tonnetzlab: error: {printable}\n"
    assert error_line(FileNotFoundError(2, "No such file", "a\nb")) == (
        "tonnetzlab: error: [Errno 2] No such file: 'a\\nb'\n"
    )


def test_only_error_line_writes_the_error_prefix():
    src = Path(__file__).resolve().parents[1] / "src"
    found = {
        path.relative_to(src).as_posix(): path.read_text(encoding="utf-8").count(
            "tonnetzlab: error:"
        )
        for path in src.rglob("*.py")
    }
    assert {name: n for name, n in found.items() if n} == {"tonnetzlab/errors.py": 1}
