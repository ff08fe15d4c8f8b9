from __future__ import annotations

import pytest

from tonnetzlab.chart import ChartError, ChordParseError, MeterMismatch
from tonnetzlab.chroma import spectral, wavio
from tonnetzlab.chroma.identify import BadPreEmphasis
from tonnetzlab.cli import UnknownSection
from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import ChordSyntaxError, UnknownRootLetter
from tonnetzlab.lattice import EmptyEmbedding
from tonnetzlab.rhythm import WindowMismatch
from tonnetzlab.transforms import TooShort


@pytest.mark.parametrize(
    "error",
    [
        ChartError,
        ChordParseError,
        MeterMismatch,
        ChordSyntaxError,
        UnknownRootLetter,
        TooShort,
        EmptyEmbedding,
        WindowMismatch,
        wavio.UnsupportedFormat,
        wavio.CorruptHeader,
        spectral.TooShort,
        spectral.SampleRateTooLow,
        BadPreEmphasis,
        UnknownSection,
    ],
    ids=lambda error: f"{error.__module__}.{error.__name__}",
)
def test_domain_errors_share_one_base(error):
    assert issubclass(error, TonnetzlabError)
    assert issubclass(error, ValueError)
