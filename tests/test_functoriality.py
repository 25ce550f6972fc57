"""Simplicial maps, orientation indices, star-local certificates, the
transfer maps, and naturality of the duality squares."""

import pytest

from lochom import simplicialmaps
from lochom.complexes import SimplicialComplex
from lochom.fixtures import circle3, hexagon, hexagon_cover_map
from lochom.mv import fundamental_class
from lochom.rings import GF, QQ, ZZ
from lochom.simplicialmaps import (SimplicialMap, check_star_local,
                                   pullback_cochain, pushforward_chain,
                                   shriek_down, shriek_up,
                                   shriek_up_preserves_fundamental_class,
                                   verify_naturality)
from fixture_complexes import bowtie, sphere2
from naturality import naturality_defect_v1, naturality_defect_v2


def index_face_compatibility(f):
    """(-1)^i ind(sigma with face i removed) == (-1)^j ind(sigma) cannot hold
    literally for independent i and j; the executable identity is that the
    boundary commutes with the signed pushforward -- checked as a chain map in
    `pushforward_matrices`.  Here we check the two-sided generator identity:
    for every dimension-preserving simplex and face position j, the index of
    the face matches the index of the simplex corrected by the position of
    the removed vertex in the image.  Returns the first failing (s, j)."""
    for s in f.source.all_simplices():
        if not f.is_dimension_preserving(s):
            continue
        img = f.image(s)
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            if not face or not f.is_dimension_preserving(face):
                continue
            removed = f.vertex_map[s[j]]
            jj = img.index(removed)
            if (-1) ** jj * f.ind(face) != (-1) ** j * f.ind(s):
                return (s, j)
    return None


def cover():
    return SimplicialMap(hexagon(), circle3(), hexagon_cover_map())


def orientation_preserving_cover():
    # hexagon reordered so every edge maps with positive orientation index
    X = hexagon().with_order((0, 3, 1, 4, 2, 5))
    return SimplicialMap(X, circle3(), hexagon_cover_map())


def test_orientation_indices_of_the_cover():
    f = cover()
    signs = {s: f.ind(s) for s in f.source.all_simplices() if len(s) == 2}
    assert signs[(2, 3)] == -1  # image (0, 2) reverses the order
    assert signs[(0, 1)] == 1 and signs[(1, 2)] == 1


def test_index_squares_to_one_and_face_compatibility():
    for f in (cover(), orientation_preserving_cover()):
        for s in f.source.all_simplices():
            assert f.ind(s) ** 2 == 1
        assert index_face_compatibility(f) is None


def test_identity_map_is_certified():
    X = sphere2()
    f = SimplicialMap(X, X, {v: v for v in X.order})
    cert = check_star_local(f)
    assert cert["ok"]
    assert f.is_orientation_preserving()


def test_cover_is_certified_star_local():
    cert = check_star_local(cover())
    assert cert["ok"]
    # each vertex star of the hexagon is a two-edge path mapping bijectively
    assert len(cert["bijections"]) > 0


def test_constant_map_fails_star_locality():
    point = SimplicialComplex([[0]])
    f = SimplicialMap(circle3(), point, {0: 0, 1: 0, 2: 0})
    cert = check_star_local(f)
    assert not cert["ok"]
    assert "witness" in cert


# maps v -> v mod 3 that fail one star check each, at the target vertex 0
STAR_FAILURES = {
    # 0 passes, but 3 also maps to 0 and its star meets 0's at vertex 1
    "stars meet": ([[0, 1], [0, 2], [1, 2], [1, 3]], [[0, 1], [1, 2], [0, 2]],
                   ((0,), (3,)), "stars of (0,) and (3,) meet"),
    # the path's end 0 has one neighbour, the circle's vertex 0 has two
    "vertex sets": ([[0, 1], [1, 2], [2, 3]], [[0, 1], [1, 2], [0, 2]],
                    ((0,), (0,)), "star vertex sets do not correspond"),
    # the circle misses the edge 12 and the face of the filled triangle
    "simplices": ([[0, 1], [1, 2], [0, 2]], [[0, 1, 2]],
                  ((0,), (0,)), "star simplices do not correspond"),
}


@pytest.mark.parametrize("case", list(STAR_FAILURES))
def test_star_local_failures_name_the_pair_and_the_reason(case):
    source, target, witness, reason = STAR_FAILURES[case]
    X, Y = SimplicialComplex(source), SimplicialComplex(target)
    f = SimplicialMap(X, Y, {v: v % 3 for v in X.order})
    cert = check_star_local(f)
    assert (cert["ok"], cert["witness"], cert["reason"]) == (
        False, witness, reason)
    rep = verify_naturality(f, ZZ)
    assert rep == {"ring": "Z", "n": X.dim, "star_local": False,
                   "witness": witness, "reason": reason}


def test_verify_naturality_refuses_unequal_dimensions():
    # a point onto the isolated vertex 3 beside a filled triangle: only 3's
    # fibre is nonempty, and the two stars of 3 agree
    f = SimplicialMap(SimplicialComplex([[3]]),
                      SimplicialComplex([[0, 1, 2], [3]]), {3: 3})
    assert verify_naturality(f, ZZ) == {
        "ring": "Z", "n": 0, "star_local": True,
        "error": "dimension mismatch"}


def test_verify_naturality_refuses_a_side_that_is_not_locally_cm():
    X = bowtie()
    rep = verify_naturality(SimplicialMap(X, X, {v: v for v in X.order}), ZZ)
    assert rep == {"ring": "Z", "n": 2, "star_local": True,
                   "source_locally_cm": False,
                   "witness": [((0,), 1, (1, []))]}
    # the circle into itself plus an isolated vertex, whose local homology
    # sits in degree 0, below the top degree 1
    Y = SimplicialComplex([[0, 1], [1, 2], [0, 2], [9]])
    rep = verify_naturality(SimplicialMap(circle3(), Y, {0: 0, 1: 1, 2: 2}),
                            ZZ)
    assert rep == {"ring": "Z", "n": 1, "star_local": True,
                   "source_locally_cm": True, "target_locally_cm": False,
                   "witness": [((9,), 0, (1, []))]}


def test_pushforward_on_fundamental_cycle():
    # the hexagon fundamental cycle pushes to twice the circle cycle
    f = cover()
    X, ring = f.source, ZZ
    hex_cycle = {}
    for e in X.simplices(1):
        # orient the 6-cycle coherently: edge (i, i+1) positively, the
        # wrap-around edge (0, 5) negatively
        hex_cycle[e] = ring.from_int(-1 if e == (0, 5) else 1)
    from lochom.caps import d_chain_plain
    assert not d_chain_plain(X, ring, hex_cycle)
    image = pushforward_chain(f, hex_cycle, ring)
    # twice the coherently oriented circle cycle
    assert image == {(0, 1): 2, (1, 2): 2, (0, 2): -2}
    assert not d_chain_plain(f.target, ring, image)


def test_pushforward_rejects_collapse():
    edge = SimplicialComplex([[0, 1]])
    g = SimplicialMap(circle3(), edge, {0: 0, 1: 1, 2: 0})
    with pytest.raises(ValueError):
        pushforward_chain(g, {(0, 2): ZZ.one()}, ZZ)


def test_pullback_drops_a_collapsed_simplex():
    # the edge (0, 2) collapses onto the vertex 0, so pulls nothing back;
    # the two edges that keep their dimension pull back signed
    edge = SimplicialComplex([[0, 1]])
    g = SimplicialMap(circle3(), edge, {0: 0, 1: 1, 2: 0})
    assert pullback_cochain(g, {(0, 1): ZZ.one()}, ZZ) == {(0, 1): 1,
                                                           (1, 2): -1}


def test_shriek_up_expands_over_the_fibre():
    f = cover()
    cert = check_star_local(f)
    out = shriek_up(f, cert, {((0,), (0, 1)): ZZ.one()}, ZZ)
    carriers = {s for (s, _) in out}
    assert carriers == {(0,), (3,)}  # the two preimages of vertex 0


def test_shriek_up_preserves_fundamental_class():
    for f in (cover(), orientation_preserving_cover()):
        cert = check_star_local(f)
        assert shriek_up_preserves_fundamental_class(f, cert, ZZ)
        assert shriek_up(f, cert, fundamental_class(f.target, ZZ), ZZ) \
            == fundamental_class(f.source, ZZ)


def test_chain_level_naturality_orientation_preserving():
    f = orientation_preserving_cover()
    cert = check_star_local(f)
    X, Y = f.source, f.target
    tops_y = [(s, b) for b in Y.simplices(1) for s in Y.all_simplices()
              if set(s) <= set(b)]
    tops_x = [(t, c) for c in X.simplices(1) for t in X.all_simplices()
              if set(t) <= set(c)]
    for (s, b) in tops_y:
        for (t, c) in tops_x:
            assert not naturality_defect_v1(f, cert, ZZ, s, b, t, c)
        for t in Y.all_simplices():
            assert not naturality_defect_v2(f, cert, ZZ, s, b, t)


def test_chain_level_naturality_fails_without_orientation():
    # the standard-order cover has a sign defect somewhere
    f = cover()
    cert = check_star_local(f)
    Y, X = f.target, f.source
    found = False
    for b in Y.simplices(1):
        for s in Y.all_simplices():
            if not set(s) <= set(b):
                continue
            for t in Y.all_simplices():
                if naturality_defect_v2(f, cert, ZZ, s, b, t):
                    found = True
    assert found


def test_verify_naturality_cover_homology_level():
    rep = verify_naturality(cover(), ZZ)
    assert rep["ok"]
    assert rep["level"] == "homology"
    assert not rep["orientation_preserving"]
    assert all(rep["covariant"].values())
    assert all(rep["contravariant"].values())


def test_verify_naturality_chain_level_when_oriented():
    rep = verify_naturality(orientation_preserving_cover(), ZZ)
    assert rep["ok"] and rep["level"] == "chain"


@pytest.mark.parametrize("transfer, square", [
    ("shriek_down", "covariant"), ("pullback_cochain", "contravariant")])
@pytest.mark.parametrize("make, level", [
    (orientation_preserving_cover, "chain"), (cover, "homology")],
    ids=["chain", "homology"])
def test_verify_naturality_catches_a_negated_transfer(
        monkeypatch, transfer, square, make, level):
    # over Z a sign flip changes every nonzero map, so each square that
    # reads the transfer fails and the other square still commutes
    original = getattr(simplicialmaps, transfer)
    monkeypatch.setattr(simplicialmaps, transfer, lambda *args: {
        key: -v for key, v in original(*args).items()})
    rep = verify_naturality(make(), ZZ)
    other = "contravariant" if square == "covariant" else "covariant"
    assert rep["level"] == level and not rep["ok"]
    assert rep[square] == {0: False, 1: False}
    assert rep[other] == {0: True, 1: True}


def test_verify_naturality_identity_and_other_rings():
    X = sphere2()
    f = SimplicialMap(X, X, {v: v for v in X.order})
    assert verify_naturality(f, ZZ)["ok"]
    for ring in (QQ, GF(2)):
        assert verify_naturality(cover(), ring)["ok"]


def test_pullback_is_evaluation_dual_of_pushforward():
    f = cover()
    ring = ZZ
    for t in f.target.all_simplices():
        psi = {t: ring.one()}
        back = pullback_cochain(f, psi, ring)
        for s in f.source.all_simplices():
            if len(s) != len(t):
                continue
            pushed = pushforward_chain(f, {s: ring.one()}, ring)
            lhs = back.get(s, ring.zero())
            rhs = pushed.get(t, ring.zero())
            assert lhs == rhs


def test_shriek_down_signs():
    f = cover()
    out = shriek_down(f, {(((2, 3)), (2, 3)): ZZ.one()}, ZZ)
    assert out == {((0, 2), (0, 2)): ZZ.from_int(1)}  # (-1) * (-1)
