"""Cap products: values on generators, the Leibniz rule sweeps, relative
variants, and orientation-swap homotopies with homology-level independence."""

import hashlib
import os

import pytest

from lochom import caps, identities
from lochom.caps import (OrientationSwap, cap_plain, cap_v1, cap_v2,
                         relative_cap)
from lochom.complexes import Subcomplex, parse_complex, reorient_vc_before
from lochom.fixtures import circle3, rp2_six
from lochom.homology import induced_matrix
from lochom.identities import leibniz_sweep, swap_sweep
from lochom.matrices import Matrix
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import (simplicial_chain_complex,
                            simplicial_cochain_complex)
from fixture_complexes import sphere2, triangle
from reorientation import reorientation_iso, resort_plain


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
    # a simplex below the cochain's degree has no back face to pair
    assert cap_plain(ZZ, {(0,): one}, {(0, 1): one}, 1) == {}


def test_leibniz_sweep_all_required_complexes():
    for fn in (circle3, triangle, sphere2, rp2_six):
        rep = leibniz_sweep(fn(), ZZ)
        assert rep["ok"], rep["witnesses"]


def test_relative_caps_respect_support():
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


def test_relative_cap_refuses_a_wrong_order_on_every_call():
    # the order's verdict is kept per (complex, subcomplex): the subcomplex
    # that passes under one order still fails under another, every time
    X = sphere2()
    L = Subcomplex(X, (0, 1))
    X2, _ = reorient_vc_before(X, L)
    for _ in range(3):
        assert relative_cap(X2, L, ZZ, {}, {}, 1, "v1", "rel") == {}
        with pytest.raises(ValueError, match="ordered before"):
            relative_cap(X, L, ZZ, {}, {}, 1, "v1", "rel")


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


def _flip_homotopy(monkeypatch):
    homotopy = caps._b_homotopy_plain

    def flipped(ring, *args):
        return {key: ring.neg(v) for key, v in homotopy(ring, *args).items()}

    monkeypatch.setattr(caps, "_b_homotopy_plain", flipped)


def _negate_coface_signs(monkeypatch):
    coface_sign = caps._coface_sign
    monkeypatch.setattr(caps, "_coface_sign",
                        lambda *args: -coface_sign(*args))


def _break_cap_v1_off_sorted(monkeypatch):
    """A first cap that is wrong only on carriers whose tuple is not sorted
    by label, i.e. only after a transposition of the vertex order."""
    cap = caps.cap_v1

    def broken(ring, xi, phi, l):
        out = cap(ring, xi, phi, l)
        if any(list(s) != sorted(s) for s, _ in xi):
            out = {key: ring.neg(v) for key, v in out.items()}
        return out

    monkeypatch.setattr(caps, "cap_v1", broken)


def test_swap_sweep_catches_a_sign_flipped_homotopy(monkeypatch):
    _flip_homotopy(monkeypatch)
    rep = swap_sweep(sphere2(), ZZ, max_witnesses=1000)
    assert not rep["ok"]
    assert {w[0] for w in rep["witnesses"]} == {"plain", "v2", "v1"}
    assert len(rep["witnesses"]) == 135
    assert swap_sweep(sphere2(), ZZ)["witnesses"] == [
        ("plain", 0, 1, (0, 1), (0,)), ("v2", 0, 1, (0, 1), (0, 1), (0,)),
        ("plain", 0, 1, (0, 1), (1,))]


def test_leibniz_sweep_catches_negated_coface_signs(monkeypatch):
    _negate_coface_signs(monkeypatch)
    rep = leibniz_sweep(sphere2(), ZZ, max_witnesses=1000)
    assert not rep["ok"]
    assert {w[0] for w in rep["witnesses"]} == {"v1", "v2"}
    assert len(rep["witnesses"]) == 112


# fault -> (nonzero defects, sha256 of the defect sequence) over both sweeps
# on t4 and rp6 over Z, taken from the sweeps that recomputed every
# boundary, cap and sign for each generator pair
DEFECT_PINS = {
    _flip_homotopy: (360, "4dc3f3fd025d155a55b4e801528e6f39"
                          "48696fc1adc9308275f9b6fcd4b8b078"),
    _negate_coface_signs: (656, "43722430df9ff29a1ff6e830f1f63835"
                                "f4780cae1718df3c6e50aabdfcb3a282"),
    _break_cap_v1_off_sorted: (96, "4df6d18046cdf9dd74347a0e4577d2a2"
                                   "390d43368d7bbc31d1b8ac0fee96ac83"),
}


@pytest.mark.parametrize("fault", list(DEFECT_PINS),
                         ids=lambda fault: fault.__name__)
def test_sweep_defects_are_pinned_under_fault_injection(monkeypatch, fault):
    digest, nonzero = hashlib.sha256(), [0]

    def recorded(fn):
        def wrapper(*args):
            d = fn(*args)
            nonzero[0] += bool(d)
            digest.update(repr(sorted(d.items())).encode())
            return d
        return wrapper

    fault(monkeypatch)
    monkeypatch.setattr(OrientationSwap, "defect",
                        recorded(OrientationSwap.defect))
    for name in ("leibniz_defect_v1", "leibniz_defect_v2"):
        monkeypatch.setattr(identities, name,
                            recorded(getattr(identities, name)))
    for name in ("t4", "rp6"):
        with open(os.path.join(FIXDIR, f"{name}.cplx"), encoding="utf-8") as fh:
            X = parse_complex(fh.read())
        swap_sweep(X, ZZ)
        leibniz_sweep(X, ZZ)
    assert (nonzero[0], digest.hexdigest()) == DEFECT_PINS[fault]


def _record_defects(monkeypatch, fault, runs):
    """(nonzero defects, sha256 of the defect sequence) of both sweeps under
    the fault, for each (fixture name, ring) in runs."""
    digest, nonzero = hashlib.sha256(), [0]

    def recorded(fn):
        def wrapper(*args):
            d = fn(*args)
            nonzero[0] += bool(d)
            digest.update(repr(sorted(d.items())).encode())
            return d
        return wrapper

    fault(monkeypatch)
    monkeypatch.setattr(OrientationSwap, "defect",
                        recorded(OrientationSwap.defect))
    for name in ("leibniz_defect_v1", "leibniz_defect_v2"):
        monkeypatch.setattr(identities, name,
                            recorded(getattr(identities, name)))
    for name, ring in runs:
        X = _fixture(name)
        swap_sweep(X, ring)
        leibniz_sweep(X, ring)
    return nonzero[0], digest.hexdigest()


def _fixture(name):
    with open(os.path.join(FIXDIR, f"{name}.cplx"), encoding="utf-8") as fh:
        return parse_complex(fh.read())


# the same two faults over F3 (t4 and rp6), where -1 is a residue other than
# 1, and over Q (t4), whose Fraction elements the digest reads through repr
OTHER_RING_DEFECT_PINS = {
    (_flip_homotopy, "F3"): (360, "1476d9e5f749d2bf1ef79d4d6ed14c35"
                                  "2ef3b1686df6324982d32747b114e327"),
    (_flip_homotopy, "Q"): (135, "6c6f65b7ecde651a8683b3466478dce8"
                                 "21f068aa620e2c4ffe687a6d8124ceb2"),
    (_negate_coface_signs, "F3"): (656, "b6b5046dfeffd01706f15cc9cd75731f"
                                        "8d4b15258ad0f844119f01d0601c2998"),
    (_negate_coface_signs, "Q"): (211, "82a157e4f54ed313691683753743fdb1"
                                       "c5c62c0b4541a44ac1ccf8db1e5f4f78"),
}
OTHER_RING_RUNS = {"F3": (("t4", GF(3)), ("rp6", GF(3))), "Q": (("t4", QQ),)}


@pytest.mark.parametrize("fault, ring", list(OTHER_RING_DEFECT_PINS),
                         ids=lambda x: getattr(x, "__name__", x))
def test_sweep_defects_are_pinned_over_fp3_and_q(monkeypatch, fault, ring):
    assert (_record_defects(monkeypatch, fault, OTHER_RING_RUNS[ring])
            == OTHER_RING_DEFECT_PINS[fault, ring])


FORMULAS = ("cap_plain", "cap_v1", "cap_v2", "_b_homotopy_plain",
            "_b_homotopy_v1", "_b_homotopy_v2", "d_chain_plain",
            "d_chain_local", "delta_cochain_plain", "delta_cochain_local")
# calls of each formula over Z, in FORMULAS order, taken from the sweeps
# that multiplied each coface sign per generator pair; the swap sweep must
# keep evaluating the caps and homotopies, not a closed form of them
FORMULA_CALLS = {
    ("t4", "swap"): (1281, 8451, 1485, 12534, 18396, 5220, 30, 15, 0, 0),
    ("t4", "leibniz"): (0, 5436, 1044, 0, 0, 0, 1812, 398, 14, 50),
    ("rp6", "swap"): (9210, 66390, 9850, 106215, 183605, 48755, 50, 25,
                      0, 0),
    ("rp6", "leibniz"): (0, 31683, 4953, 0, 0, 0, 10561, 1772, 31, 121),
}
# sha256 of the arguments of every formula call of both sweeps on t4 over Z
FORMULA_ARGUMENTS_T4 = ("3fe57539ee904bd7654f12fd0abe7b00"
                        "ee5799f98cd8d8a5a6594d9efc706ecd")


def _plain(x):
    """A call argument as comparable data."""
    if isinstance(x, dict):
        return sorted(x.items())
    if hasattr(x, "order"):
        return tuple(x.order)
    return getattr(x, "name", x)


def test_sweeps_call_every_formula_as_often_as_before(monkeypatch):
    calls, digest = {}, hashlib.sha256()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            if args_digested:
                digest.update(repr((name, [_plain(a) for a in args]))
                              .encode())
            return fn(*args)
        return wrapper

    # the sweeps reach the formulas through both modules' globals
    for module in (caps, identities):
        for name in FORMULAS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    for name in ("t4", "rp6"):
        X = _fixture(name)
        args_digested = name == "t4"
        for kind, sweep in (("swap", swap_sweep), ("leibniz", leibniz_sweep)):
            calls.clear()
            assert sweep(X, ZZ)["ok"]
            assert (tuple(calls.get(f, 0) for f in FORMULAS)
                    == FORMULA_CALLS[name, kind]), (name, kind)
    assert digest.hexdigest() == FORMULA_ARGUMENTS_T4


def test_a_swap_sweep_signs_each_coface_once(monkeypatch):
    # no swap changes X's faces and cofaces, so every swap of one sweep
    # shares a single signed copy of them
    signed = []
    sign = caps._coface_sign

    def recorded(X, t, tp):
        signed.append((t, tp))
        return sign(X, t, tp)

    monkeypatch.setattr(caps, "_coface_sign", recorded)
    X = _fixture("rp6")
    assert swap_sweep(X, ZZ)["ok"]
    assert sorted(signed) == sorted((t, tp) for t in X.all_simplices()
                                    for tp in X.cofaces(t))


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
