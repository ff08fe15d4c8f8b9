from __future__ import annotations

import itertools

import pytest

from tonnetzlab.errors import TonnetzlabError
from tonnetzlab.harmony import (
    ChordSymbol,
    Quality,
    Triad,
    common_tones,
    parse_chord_symbol,
    pitch_class_set,
    roman_numeral,
    triad_of,
)

A, B, CS, D, E, F, FS, G, GS = 9, 11, 1, 2, 4, 5, 6, 7, 8


def test_parse_plain_major():
    sym = parse_chord_symbol("A")
    assert (sym.root, sym.quality, sym.embellishment, sym.bass) == (
        A,
        Quality.MAJOR,
        "",
        None,
    )


def test_parse_minor_with_seventh():
    sym = parse_chord_symbol("f#7")
    assert (sym.root, sym.quality, sym.embellishment, sym.bass) == (
        FS,
        Quality.MINOR,
        "7",
        None,
    )


def test_parse_slash_bass():
    sym = parse_chord_symbol("B/F#")
    assert (sym.root, sym.quality, sym.bass) == (B, Quality.MAJOR, FS)


def test_parse_unknown_root_letter():
    with pytest.raises(TonnetzlabError, match="^unknown root letter 'H' in 'H'$"):
        parse_chord_symbol("H")


def test_parse_unicode_accidentals():
    assert parse_chord_symbol("F♯").root == FS
    assert parse_chord_symbol("B♭").root == 10


def test_parse_m_suffix_means_minor():
    sym = parse_chord_symbol("Am")
    assert (sym.root, sym.quality) == (A, Quality.MINOR)
    assert parse_chord_symbol("F#m7") == parse_chord_symbol("f#7")


def test_parse_double_accidental_rejected():
    with pytest.raises(TonnetzlabError, match="^double accidental in 'A##'$"):
        parse_chord_symbol("A##")


def test_parse_bass_must_be_chord_tone():
    with pytest.raises(TonnetzlabError, match="^bass C is not a tone of 'A/C'$"):
        parse_chord_symbol("A/C")
    # the embellishment tone counts as a chord tone
    assert parse_chord_symbol("E7/D").bass == D


def test_parse_trailing_garbage():
    with pytest.raises(TonnetzlabError, match="^unexpected 'x' at end of 'A7x'$"):
        parse_chord_symbol("A7x")


def test_parse_empty_token():
    with pytest.raises(TonnetzlabError, match="^empty chord token$"):
        parse_chord_symbol("")


def test_triad_of_drops_embellishment_and_bass():
    assert triad_of(parse_chord_symbol("E7")) == Triad(E, Quality.MAJOR)
    assert triad_of(parse_chord_symbol("D6")) == Triad(D, Quality.MAJOR)
    assert triad_of(parse_chord_symbol("B/F#")) == Triad(B, Quality.MAJOR)
    assert triad_of(parse_chord_symbol("A")) == Triad(A, Quality.MAJOR)


def test_pitch_class_sets():
    assert pitch_class_set(parse_chord_symbol("E7")) == {E, GS, B, D}
    assert pitch_class_set(parse_chord_symbol("d")) == {D, F, A}
    assert pitch_class_set(parse_chord_symbol("D6")) == {D, FS, A, B}


def test_common_tones_dominant_seventh_against_minor_subdominant():
    assert common_tones(parse_chord_symbol("E7"), parse_chord_symbol("d")) == {D}


def test_common_tones_self():
    a = parse_chord_symbol("A")
    assert common_tones(a, a) == {A, CS, E}


def test_common_tones_disjoint_pair():
    # oracle: enumerate both sets from raw interval arithmetic
    e_major = {(4 + i) % 12 for i in (0, 4, 7)}
    fs_minor = {(6 + i) % 12 for i in (0, 3, 7)}
    assert e_major & fs_minor == set()
    assert common_tones(parse_chord_symbol("E"), parse_chord_symbol("f#")) == set()


def test_common_tones_symmetric_and_self_inclusive():
    tokens = ["A", "E7", "f#", "A7", "D", "d", "B/F#", "D6", "G", "B7"]
    symbols = [parse_chord_symbol(t) for t in tokens]
    for a, b in itertools.product(symbols, repeat=2):
        assert common_tones(a, b) == common_tones(b, a)
    for a in symbols:
        assert common_tones(a, a) == pitch_class_set(a)


def test_triad_pitch_class_set_shape():
    for triad in (Triad(r, q) for r in range(12) for q in Quality):
        tones = triad.pitch_classes()
        assert len(tones) == 3
        assert triad.root in tones
        assert (triad.root + 7) % 12 in tones


def _all_canonical_symbols():
    for root, quality, emb in itertools.product(
        range(12), Quality, ("", "6", "7")
    ):
        base = ChordSymbol(root, quality, emb)
        yield base
        for bass in sorted(pitch_class_set(base)):
            yield ChordSymbol(root, quality, emb, bass)


def test_parse_of_canonical_render_is_identity():
    for symbol in _all_canonical_symbols():
        assert parse_chord_symbol(symbol.canonical()) == symbol


def test_roman_numeral_examples_in_a_major():
    key = A
    assert roman_numeral(parse_chord_symbol("A7"), key) == "V7/IV"
    assert roman_numeral(parse_chord_symbol("d"), key) == "iv"
    assert roman_numeral(parse_chord_symbol("G"), key) == "♭VII"
    assert roman_numeral(parse_chord_symbol("E7"), key) == "V7"
    assert roman_numeral(parse_chord_symbol("D"), key) == "IV"


def test_roman_numeral_secondary_structure():
    label = roman_numeral(parse_chord_symbol("A7"), A)
    assert label.partition("/") == ("V7", "/", "IV")


def test_tonic_is_roman_one_in_every_key():
    for tonic in range(12):
        label = roman_numeral(ChordSymbol(tonic, Quality.MAJOR), tonic)
        assert label == "I"


def test_every_pitch_class_gets_a_label():
    key = A
    for root in range(12):
        for quality in Quality:
            label = roman_numeral(ChordSymbol(root, quality), key)
            assert label.lstrip("♭").upper() in ("I", "II", "III", "IV", "V", "VI", "VII")


def test_non_diatonic_roots_get_flat_spelling_in_major():
    key = 0  # C major
    for root, expect in ((1, "♭II"), (3, "♭III"), (10, "♭VII")):
        assert roman_numeral(ChordSymbol(root, Quality.MAJOR), key) == expect


# The label of each interval above the key, as (major, major 6, major 7, minor,
# minor 6, minor 7), the same in every key.
ROMAN_TABLE = {
    0: ("I", "I6", "V7/IV", "i", "i6", "i7"),
    1: ("♭II", "♭II6", "♭II7", "♭ii", "♭ii6", "♭ii7"),
    2: ("II", "II6", "II7", "ii", "ii6", "ii7"),
    3: ("♭III", "♭III6", "♭III7", "♭iii", "♭iii6", "♭iii7"),
    4: ("III", "III6", "III7", "iii", "iii6", "iii7"),
    5: ("IV", "IV6", "IV7", "iv", "iv6", "iv7"),
    6: ("♭V", "♭V6", "♭V7", "♭v", "♭v6", "♭v7"),
    7: ("V", "V6", "V7", "v", "v6", "v7"),
    8: ("♭VI", "♭VI6", "♭VI7", "♭vi", "♭vi6", "♭vi7"),
    9: ("VI", "VI6", "VI7", "vi", "vi6", "vi7"),
    10: ("♭VII", "♭VII6", "♭VII7", "♭vii", "♭vii6", "♭vii7"),
    11: ("VII", "VII6", "VII7", "vii", "vii6", "vii7"),
}


@pytest.mark.parametrize("key", range(12))
def test_roman_numeral_table_in_every_key(key):
    for interval, labels in ROMAN_TABLE.items():
        root = (key + interval) % 12
        got = tuple(
            roman_numeral(ChordSymbol(root, quality, emb), key)
            for quality, emb in itertools.product(Quality, ("", "6", "7"))
        )
        assert got == labels, interval
