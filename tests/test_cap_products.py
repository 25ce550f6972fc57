"""Cap products: values on generators, the Leibniz rule sweeps, relative
variants, and orientation-swap homotopies with homology-level independence."""

import os

from lochom import caps, identities
from lochom.caps import (OrientationSwap, cap_plain, cap_v1, cap_v2,
                         relative_cap)
from lochom.complexes import Subcomplex, parse_complex, reorient_vc_before
from lochom.fixtures import circle3, rp2_six, sphere2, triangle
from lochom.homology import induced_matrix
from lochom.identities import leibniz_sweep, swap_sweep
from lochom.matrices import Matrix
from lochom.rings import GF, ZZ
from lochom.sheaves import (reorientation_iso, simplicial_chain_complex,
                            simplicial_cochain_complex)


def test_cap_v1_generator_values():
    # (s, b)* cap (t, c) keeps the front face when t is the back face of s
    # and the tops agree
    one = ZZ.one()
    s, b = (0, 1, 2), (0, 1, 2)
    assert cap_v1(ZZ, {(s, b): one}, {((1, 2), b): one}, 1) == {(0, 1): one}
    assert cap_v1(ZZ, {(s, b): one}, {((0, 1), b): one}, 1) == {}
    assert cap_v1(ZZ, {(s, b): one}, {((1, 2), (0, 1, 3)): one}, 1) == {}


def test_cap_v2_generator_values():
    one = ZZ.one()
    s, b = (0, 1, 2), (0, 1, 2)
    assert cap_v2(ZZ, {(s, b): one}, {(1, 2): one}, 1) == {((0, 1), b): one}
    assert cap_v2(ZZ, {(s, b): one}, {(0, 2): one}, 1) == {}


def test_cap_plain_agrees_with_degree_split():
    one = ZZ.one()
    assert cap_plain(ZZ, {(0, 1, 2): one}, {(2,): one}, 0) == {(0, 1, 2): one}
    assert cap_plain(ZZ, {(0, 1, 2): one}, {(1, 2): one}, 1) == {(0, 1): one}


def test_leibniz_sweep_all_required_complexes():
    for fn in (circle3, triangle, sphere2, rp2_six):
        rep = leibniz_sweep(fn(), ZZ)
        assert rep["ok"], rep["witnesses"]


def test_relative_caps_respect_support():
    import pytest
    X = sphere2()
    X2, L2 = reorient_vc_before(X, Subcomplex(X, (2, 3)))
    vc = L2.vertex_complement()
    one = ZZ.one()
    # the cochain dual to the face t of a top simplex s, and the carrier of
    # an output label, for the first and the second cap
    cochain = {"v1": lambda t, s: {(t, s): one}, "v2": lambda t, s: {t: one}}
    carrier = {"v1": lambda key: key, "v2": lambda key: key[0]}
    plain_cap = {"v1": cap_v1, "v2": cap_v2}
    for variant in ("v1", "v2"):
        for support in ("rel", "sub"):
            vanishing = support == "rel"
            nonzero = 0
            for s in X2.simplices(2):
                xi = {(s, s): one}
                for t in X2.simplices(1):
                    phi = cochain[variant](t, s)
                    if L2.contains(t) == vanishing:
                        # wrong support is rejected
                        with pytest.raises(ValueError, match="subcomplex at"):
                            relative_cap(X2, L2, ZZ, xi, phi, 1, variant,
                                         support)
                        continue
                    out = relative_cap(X2, L2, ZZ, xi, phi, 1, variant,
                                       support)
                    plain = plain_cap[variant](ZZ, xi, phi, 1)
                    # vanishing on L: the whole cap, carried in the vertex
                    # complement (the built-in assertion does not trip);
                    # supported on L: the part carried outside it
                    assert out.items() <= plain.items()
                    assert out == plain or not vanishing
                    for key in out:
                        assert vc.contains(carrier[variant](key)) == vanishing
                    nonzero += bool(out)
            assert nonzero, (variant, support)
            # L's vertices listed before the vertex complement are rejected
            L_first = Subcomplex(X, (0, 1))
            with pytest.raises(ValueError, match="ordered before"):
                relative_cap(X, L_first, ZZ, {}, {}, 1, variant, support)


def test_swap_sweep_small_complexes():
    for fn in (circle3, triangle):
        rep = swap_sweep(fn(), ZZ)
        assert rep["ok"], rep["witnesses"]


FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

# (swap, Leibniz) `checked` counts over Z, from the sweeps that evaluated each
# generator pair with its own chain of vector operations
SWEEP_CHECKED = {"rp6": (69315, 12212), "t4": (7524, 2160)}


def test_sweeps_evaluate_every_pair_they_count(monkeypatch):
    calls = {"swap": 0, "leibniz": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(OrientationSwap, "defect",
                        counted("swap", OrientationSwap.defect))
    for name in ("leibniz_defect_v1", "leibniz_defect_v2"):
        monkeypatch.setattr(identities, name,
                            counted("leibniz", getattr(identities, name)))
    for name, (swap_checked, leibniz_checked) in SWEEP_CHECKED.items():
        with open(os.path.join(FIXDIR, f"{name}.cplx"), encoding="utf-8") as fh:
            X = parse_complex(fh.read())
        calls.update(swap=0, leibniz=0)
        swap, leibniz = swap_sweep(X, ZZ), leibniz_sweep(X, ZZ)
        assert swap["ok"] and leibniz["ok"]
        assert swap["checked"] == calls["swap"] == swap_checked, name
        assert leibniz["checked"] == calls["leibniz"] == leibniz_checked, name


def test_swap_sweep_catches_a_sign_flipped_homotopy(monkeypatch):
    homotopy = caps._b_homotopy_plain

    def flipped(ring, *args):
        return {key: ring.neg(v) for key, v in homotopy(ring, *args).items()}

    monkeypatch.setattr(caps, "_b_homotopy_plain", flipped)
    rep = swap_sweep(sphere2(), ZZ, max_witnesses=1000)
    assert not rep["ok"]
    assert {w[0] for w in rep["witnesses"]} == {"plain", "v2", "v1"}
    assert len(rep["witnesses"]) == 135
    assert swap_sweep(sphere2(), ZZ)["witnesses"] == [
        ("plain", 0, 1, (0, 1), (0,)), ("v2", 0, 1, (0, 1), (0, 1), (0,)),
        ("plain", 0, 1, (0, 1), (1,))]


def test_leibniz_sweep_catches_negated_coface_signs(monkeypatch):
    coface_sign = caps._coface_sign
    monkeypatch.setattr(caps, "_coface_sign",
                        lambda *args: -coface_sign(*args))
    rep = leibniz_sweep(sphere2(), ZZ, max_witnesses=1000)
    assert not rep["ok"]
    assert {w[0] for w in rep["witnesses"]} == {"v1", "v2"}
    assert len(rep["witnesses"]) == 112


def _homology_cap_conjugation(X, swap_index, ring):
    """Capping a fundamental cycle is orientation independent on homology:
    the induced maps computed in two adjacent-transposition orders agree
    after conjugating by the re-sorting isomorphisms."""
    n = X.dim
    order = list(X.order)
    order[swap_index], order[swap_index + 1] = \
        order[swap_index + 1], order[swap_index]
    Xt = X.with_order(order)
    chain_x = simplicial_chain_complex(X, ring)
    chain_t = simplicial_chain_complex(Xt, ring)
    cochain_x = simplicial_cochain_complex(X, ring)
    cochain_t = simplicial_cochain_complex(Xt, ring)
    iso_chain = reorientation_iso(chain_x, chain_t, X, Xt)
    iso_cochain = reorientation_iso(cochain_x, cochain_t, X, Xt)
    z = chain_x.homology(n).gens[0]
    from lochom.caps import resort_plain
    zt = resort_plain(Xt, ring, z)

    for l in range(n + 1):
        def cap_in_x(cochain):
            return cap_plain(ring, z, cochain, l)

        def cap_in_t(cochain):
            return cap_plain(ring, zt, cochain, l)

        src_x = cochain_x.homology(l)
        tgt_t = chain_t.homology(n - l)
        via_x = induced_matrix(
            src_x, tgt_t,
            lambda c: iso_chain[n - l].apply(cap_in_x(c)))
        via_t = induced_matrix(
            src_x, tgt_t,
            lambda c: cap_in_t(iso_cochain[l].apply(c)))
        assert via_x == via_t


def test_homology_level_orientation_independence():
    _homology_cap_conjugation(circle3(), 0, ZZ)
    _homology_cap_conjugation(circle3(), 1, ZZ)
    _homology_cap_conjugation(sphere2(), 1, ZZ)
    _homology_cap_conjugation(rp2_six(), 2, GF(2))
