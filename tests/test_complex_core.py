"""Complex construction, vertex orders, file round-trips, star/link."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom.complexes import (MAX_CLOSURE, SimplicialComplex, Subcomplex,
                              is_vc_before, orient_vc_before, parse_complex,
                              parse_subcomplex, perm_sign, reorient_vc_before,
                              serialize_complex)
from lochom.fixtures import FIXTURES, circle3, sphere2, triangle


def test_face_closure_all_fixtures():
    for fn in FIXTURES.values():
        X = fn()
        for s in X.all_simplices():
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                if face:
                    assert X.contains(face)


def test_order_consistency_subsequence():
    # vertex positions of a face form a subsequence of the cofaces' positions
    for fn in FIXTURES.values():
        X = fn()
        for s in X.all_simplices():
            positions = [X.pos[v] for v in s]
            assert positions == sorted(positions)


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2), lambda v: v) == 1
    assert perm_sign((1, 0, 2), lambda v: v) == -1
    assert perm_sign((2, 0, 1), lambda v: v) == 1


def test_parse_minimal_circle():
    X = parse_complex("simplex: 0 1\nsimplex: 1 2\nsimplex: 0 2")
    assert X.order == (0, 1, 2)
    assert X.dim == 1
    assert X.contains((0, 2)) and X.contains((1,))


def test_parse_order_header():
    X = parse_complex("order: 1 2 0\nsimplex: 0 1 2")
    assert X.order == (1, 2, 0)
    assert X.contains((1, 2, 0))  # canonical in the declared order


def test_parse_empty():
    X = parse_complex("")
    assert X.dim == -1


def test_parse_rejects_duplicates_and_unknown_vertices():
    with pytest.raises(ValueError):
        parse_complex("simplex: 0 0 1")
    with pytest.raises(ValueError):
        parse_complex("order: 0 1\nsimplex: 0 2")


def test_parse_bounds_the_face_closure():
    # every fixture is far below the bound; the line that passes it is named
    for fn in FIXTURES.values():
        faces = sum(2 ** len(s) - 1 for s in fn().maximal_simplices())
        assert 100 * faces < MAX_CLOSURE
    # a line of 16 vertices (2^16 - 1 faces) stays under the bound and a
    # second one passes it; a line of 17 vertices passes it by itself
    first = "simplex: " + " ".join(map(str, range(16)))
    second = "simplex: " + " ".join(map(str, range(20, 36)))
    big = "simplex: " + " ".join(map(str, range(40, 57)))
    for lines, named in (([first, second], second), (["simplex: 0 1", big],
                                                     big)):
        with pytest.raises(ValueError,
                           match=rf"^line '{named}' takes the face closure"):
            parse_complex("\n".join(lines + ["simplex: 0 1 2"]))


def test_vertex_complement_and_order_check_are_kept():
    X = sphere2()
    L = Subcomplex(X, (0, 1))
    assert L.vertex_complement() is L.vertex_complement()
    assert L.vertex_complement().vertex_set == {2, 3}
    # the kept answer is for one order only
    X2, _ = reorient_vc_before(X, L)
    for Y, expected in ((X, False), (X2, True), (X, False), (X2, True)):
        assert is_vc_before(Y, L) == expected


def test_round_trip_all_fixtures():
    for fn in FIXTURES.values():
        X = fn()
        Y = parse_complex(serialize_complex(X))
        assert Y.order == X.order
        assert set(Y.all_simplices()) == set(X.all_simplices())


def test_subcomplex_parse_and_fullness():
    X = sphere2()
    L = parse_subcomplex("vertices: 2 3", X)
    assert L.contains((2, 3)) and L.contains((2,))
    assert not L.contains((1, 2))


def test_orient_vc_before_examples():
    X = circle3()
    assert orient_vc_before(X, Subcomplex(X, (2,))) == (0, 1, 2)
    assert orient_vc_before(X, Subcomplex(X, (0,))) == (1, 2, 0)
    T = sphere2()
    assert orient_vc_before(T, Subcomplex(T, (0, 2))) == (1, 3, 0, 2)


def test_orient_vc_before_idempotent_and_recognized():
    for fn in FIXTURES.values():
        X = fn()
        verts = X.order[: max(1, len(X.order) // 2)]
        L = Subcomplex(X, verts)
        X2, L2 = reorient_vc_before(X, L)
        assert is_vc_before(X2, L2)
        assert orient_vc_before(X2, L2) == X2.order


def test_vc_before_face_position_consequences():
    # once the complement comes first, every simplex splits as a front face
    # outside the subcomplex followed by a back face inside it
    X = sphere2()
    X2, L2 = reorient_vc_before(X, Subcomplex(X, (2, 3)))
    inside = set(L2.vertex_set)
    for s in X2.all_simplices():
        tail = False
        for v in s:
            if v in inside:
                tail = True
            else:
                assert not tail


def test_star_link_duality():
    for fn in FIXTURES.values():
        X = fn()
        for s in X.all_simplices():
            star = X.star(s)
            sset = set(s)
            open_star = {t for t in star if sset <= set(t)}
            link = set(X.link_complex(s).all_simplices())
            assert link == {t for t in star - open_star
                            if not (set(t) & sset)}


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["given_order", "reversed_order"])
def test_link_complex_equals_the_constructed_link(reverse):
    for fn in FIXTURES.values():
        X = fn()
        if reverse:
            X = X.with_order(X.order[::-1])
        for s in X.all_simplices():
            lk = [tuple(v for v in a if v not in s)
                  for a in X.all_simplices() if set(s) < set(a)]
            verts = {v for t in lk for v in t}
            built = SimplicialComplex(
                lk, order=[v for v in X.order if v in verts])
            link = X.link_complex(s)
            assert link.order == built.order
            assert link.pos == built.pos
            assert link.by_dim == built.by_dim
            assert set(link.all_simplices()) == set(built.all_simplices())
            assert link.dim == built.dim


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4,
                         unique=True), min_size=1, max_size=6))
def test_random_complex_face_closure(maximal):
    X = SimplicialComplex(maximal)
    for s in X.all_simplices():
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            if face:
                assert X.contains(face)
    Y = parse_complex(serialize_complex(X))
    assert set(Y.all_simplices()) == set(X.all_simplices())
