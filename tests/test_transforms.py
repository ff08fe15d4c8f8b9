from __future__ import annotations

import itertools
from collections import deque

from hypothesis import given
from hypothesis import strategies as st

from tonnetzlab.harmony import (
    ALL_TRIADS,
    ChordSymbol,
    Triad,
    parse_chord_symbol,
)
from tonnetzlab.transforms import (
    NR_OPS,
    annotate_progression,
    apply_nr,
    classify_move,
    tonnetz_distance,
)

A, B, D, E, FS, G = 9, 11, 2, 4, 6, 7


def _triad_tones(triad: Triad) -> set[int]:
    # independent oracle: raw interval arithmetic, no package set helpers
    third = 3 if triad.minor else 4
    return {triad.root % 12, (triad.root + third) % 12, (triad.root + 7) % 12}


def _oracle_distance(a: Triad, b: Triad) -> int:
    if a == b:
        return 0
    return 1 if _triad_tones(a) & _triad_tones(b) else 2


def test_parallel_example():
    assert apply_nr("P", Triad(D, minor=False)) == Triad(D, minor=True)


def test_relative_example():
    assert apply_nr("R", Triad(A, minor=False)) == Triad(FS, minor=True)


def test_nebenverwandt_example():
    assert apply_nr("N", Triad(D, minor=True)) == Triad(A, minor=False)


def test_leittonwechsel_relates_f_sharp_minor_and_d_major():
    assert apply_nr("L", Triad(FS, minor=True)) == Triad(D, minor=False)


def test_all_ops_are_quality_toggling_involutions():
    for op, triad in itertools.product(NR_OPS, ALL_TRIADS):
        image = apply_nr(op, triad)
        assert image.minor is not triad.minor
        assert apply_nr(op, image) == triad


def test_named_ops_preserve_a_common_tone():
    for op, triad in itertools.product(NR_OPS, ALL_TRIADS):
        image = apply_nr(op, triad)
        assert _triad_tones(triad) & _triad_tones(image)
        assert tonnetz_distance(triad, image) == 1


def test_distance_examples():
    assert tonnetz_distance(Triad(A, minor=False), Triad(E, minor=False)) == 1
    assert tonnetz_distance(Triad(G, minor=False), Triad(A, minor=False)) == 2
    assert tonnetz_distance(Triad(B, minor=False), Triad(D, minor=False)) == 1
    assert tonnetz_distance(Triad(E, minor=False), Triad(FS, minor=True)) == 2


def test_distance_matches_common_tone_oracle_on_all_pairs():
    for a, b in itertools.product(ALL_TRIADS, repeat=2):
        assert tonnetz_distance(a, b) == _oracle_distance(a, b)


def _bfs_distance_table() -> dict[tuple[Triad, Triad], int]:
    """Breadth-first search of the common-tone graph from every triad."""
    adjacency: dict[Triad, list[Triad]] = {t: [] for t in ALL_TRIADS}
    for a in ALL_TRIADS:
        for b in ALL_TRIADS:
            if a != b and a.pitch_classes() & b.pitch_classes():
                adjacency[a].append(b)
    table: dict[tuple[Triad, Triad], int] = {}
    for start in ALL_TRIADS:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        for end, d in dist.items():
            table[(start, end)] = d
    return table


def test_distance_matches_breadth_first_search_on_all_pairs():
    table = _bfs_distance_table()
    assert len(table) == 576
    for a, b in itertools.product(ALL_TRIADS, repeat=2):
        assert tonnetz_distance(a, b) == table[(a, b)]


def test_graph_diameter_is_two():
    distances = [
        tonnetz_distance(a, b) for a, b in itertools.product(ALL_TRIADS, repeat=2)
    ]
    assert max(distances) == 2
    assert set(distances) == {0, 1, 2}


def test_distance_invariant_under_transposition():
    for a, b in itertools.product(ALL_TRIADS, repeat=2):
        base = tonnetz_distance(a, b)
        for k in range(12):
            shifted = tonnetz_distance(
                Triad((a.root + k) % 12, a.minor),
                Triad((b.root + k) % 12, b.minor),
            )
            assert shifted == base


def test_classify_generic_single():
    move = classify_move(parse_chord_symbol("A7"), parse_chord_symbol("D"))
    assert (move.arity, move.kind, move.nr_name) == (1, "single", None)


def test_classify_named_parallel():
    move = classify_move(parse_chord_symbol("D"), parse_chord_symbol("d"))
    assert (move.kind, move.nr_name) == ("single", "P")


def test_classify_double():
    move = classify_move(parse_chord_symbol("B7"), parse_chord_symbol("d"))
    assert (move.arity, move.kind, move.nr_name) == (2, "double", None)


def test_classify_identity_for_embellishment_change():
    move = classify_move(parse_chord_symbol("A"), parse_chord_symbol("A7"))
    assert (move.arity, move.kind) == (0, "identity")


def test_classify_arity_is_symmetric():
    symbols = [parse_chord_symbol(t) for t in ["A", "E7", "f#", "d", "G", "B7", "D6"]]
    for a, b in itertools.product(symbols, repeat=2):
        assert classify_move(a, b).arity == classify_move(b, a).arity


def _reference_move(a: ChordSymbol, b: ChordSymbol) -> tuple[int, str | None]:
    ta, tb = Triad(a.root, a.minor), Triad(b.root, b.minor)
    arity = 0 if ta == tb else 1 if _triad_tones(ta) & _triad_tones(tb) else 2
    names = [op for op in NR_OPS if apply_nr(op, ta) == tb]
    return arity, names[0] if names else None


def test_classify_matches_the_pitch_class_reference_on_every_chord_pair():
    # each triad plain, with a 6 or a 7, and over its fifth as the bass
    symbols = [
        ChordSymbol(t.root, t.minor, embellishment, bass)
        for t in ALL_TRIADS
        for embellishment in ("", "6", "7")
        for bass in (None, (t.root + 7) % 12)
    ]
    for a, b in itertools.product(symbols, repeat=2):
        move = classify_move(a, b)
        assert (move.source, move.target) == (a, b)
        assert (move.arity, move.nr_name) == _reference_move(a, b)


def test_relative_applies_in_both_directions():
    forward = classify_move(parse_chord_symbol("A"), parse_chord_symbol("f#"))
    back = classify_move(parse_chord_symbol("f#"), parse_chord_symbol("A"))
    assert forward.nr_name == "R"
    assert back.nr_name == "R"


def test_annotate_single_chord_has_no_moves():
    annotation = annotate_progression([parse_chord_symbol("A")], A)
    assert annotation.moves == ()
    assert annotation.roman == ("I",)
    assert annotate_progression([], A).moves == ()


def test_annotate_interlude_arities():
    chords = [parse_chord_symbol(t) for t in ["A", "E", "f#", "A7", "D", "d", "A"]]
    annotation = annotate_progression(chords, A)
    assert [m.arity for m in annotation.moves] == [1, 2, 1, 1, 1, 1]


def test_annotate_coda_arities():
    chords = [parse_chord_symbol(t) for t in ["A", "E7", "d", "A", "E7", "A"]]
    annotation = annotate_progression(chords, A)
    assert [m.arity for m in annotation.moves] == [1, 2, 1, 1, 1]


def test_annotate_move_count_is_chords_minus_one():
    chords = [parse_chord_symbol(t) for t in ["A", "E7", "A", "f#", "A7"]]
    annotation = annotate_progression(chords, A)
    assert len(annotation.moves) == len(chords) - 1
    assert len(annotation.roman) == len(chords)


def _cadences_by_chord_fields(chords, key):
    """IV-iv-I with a tonic that has no seventh, and V-vi, read off roots and
    qualities: a reference that never looks at a Roman label."""

    def on(chord, interval, minor):
        return (chord.root - key) % 12 == interval and chord.minor is minor

    found = []
    for i in range(len(chords)):
        if (
            i + 3 <= len(chords)
            and on(chords[i], 5, False)
            and on(chords[i + 1], 5, True)
            and on(chords[i + 2], 0, False)
            and chords[i + 2].embellishment != "7"
        ):
            found.append(("plagal_mixture", i, 3))
        if (
            i + 2 <= len(chords)
            and on(chords[i], 7, False)
            and on(chords[i + 1], 9, True)
        ):
            found.append(("deceptive", i, 2))
    return found


# intervals above the key: mostly those the two cadences are made of
_INTERVALS = st.sampled_from((0, 5, 7, 9)) | st.integers(0, 11)
_CHORDS = st.tuples(_INTERVALS, st.booleans(), st.sampled_from(("", "6", "7")))


@given(st.integers(0, 11), st.lists(_CHORDS, max_size=12))
def test_cadences_match_the_chord_field_reference(key, fields):
    chords = [ChordSymbol((key + i) % 12, q, emb) for i, q, emb in fields]
    cadences = annotate_progression(chords, key).cadences
    got = [(c.kind, c.start, c.length) for c in cadences]
    assert got == _cadences_by_chord_fields(chords, key)
