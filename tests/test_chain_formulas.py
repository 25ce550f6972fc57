"""The trimmed chain formulas against their old bodies (`chain_reference`).

The cap products, orientation-swap homotopies, chain boundaries and
in-place subtractions of `lochom.caps`, the structure maps of
`lochom.mv.MVDoubleComplex` and the vector helpers of `lochom.matrices`
must return what the old bodies return, in value, value type and key
order, over Z, Q, F2 and F3, or raise the same exception.  The draws hold
multi-term chains, zero coefficients, carriers shorter than the cochain
degree, stalk parts b != c and keys that collide, so that every first and
later insertion of a key is taken.  Also here: `sub` against `add` and
`neg`, `SimplicialComplex.with_order` against the constructor it
replaces, and `Subcomplex.contains` against its old expression.
"""

import os
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_reference as ref
from lochom import caps, matrices
from lochom.complexes import (SimplicialComplex, Subcomplex, is_vc_before,
                              parse_complex, reorient_vc_before)
from lochom.mv import MVDoubleComplex
from lochom.rings import GF, QQ, ZZ
from fixture_complexes import FIXTURES

RINGS = (ZZ, QQ, GF(2), GF(3))
VERTICES = range(6)
FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture_files():
    return {name[:-5]: os.path.join(FIXDIR, name)
            for name in sorted(os.listdir(FIXDIR)) if name.endswith(".cplx")}


def every_fixture():
    """(name, complex) for each fixture function and each fixture file."""
    out = [pytest.param(name, fn(), id=name) for name, fn in FIXTURES.items()]
    for name, path in _fixture_files().items():
        with open(path, encoding="utf-8") as fh:
            X = parse_complex(fh.read())
        out.append(pytest.param(name, X, id=f"{name}.cplx"))
    return out


def outcome(fn, *args):
    """What a call gives, as comparable data: its result with each value's
    type, in key order, or the type of the exception it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # the old bodies raise on some shapes
        return ("raises", type(exc))
    if isinstance(result, dict):
        return [(k, v, type(v)) for k, v in result.items()]
    return (result, type(result))


def in_place(fn, ring, out, *args):
    """`outcome` of an in-place subtraction: the dict it leaves."""
    out = dict(out)
    raised = outcome(fn, ring, out, *args)
    return raised if raised and raised[0] == "raises" else outcome(dict, out)


@st.composite
def elements(draw, ring):
    n = draw(st.integers(-3, 3))
    if ring is QQ and draw(st.booleans()):
        return Fraction(n, draw(st.integers(1, 3)))
    return ring.from_int(n)


simplices = st.lists(st.sampled_from(VERTICES), min_size=1, max_size=4,
                     unique=True).map(tuple)


def chains(keys, ring, max_size=5):
    return st.dictionaries(keys, elements(ring), max_size=max_size)


def suffix_or_any(draw, s):
    """A back face of s (every length, so also one past the carrier's own
    degree) or any simplex."""
    if draw(st.booleans()):
        return s[draw(st.integers(0, len(s) - 1)):]
    return draw(simplices)


# sorted simplices on four vertices, so that stalk parts collide
carriers = st.lists(st.sampled_from(range(4)), min_size=1, max_size=4,
                    unique=True).map(lambda s: tuple(sorted(s)))


@st.composite
def cap_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    l = draw(st.integers(0, 4))
    xi = draw(chains(st.tuples(carriers, carriers), ring, max_size=6))
    for s, b in list(xi):
        # a carrier with another last vertex has the same front faces
        w = draw(st.sampled_from(VERTICES))
        if w not in s:
            c = b if draw(st.booleans()) else draw(carriers)
            xi[s[:-1] + (w,), c] = draw(elements(ring))
    chain = {s: v for (s, _), v in xi.items()}
    phi, psi = {}, {}
    for s, b in xi:
        # every back face of s (of every length, so also one past the
        # carrier's own degree) and one simplex that may be none of them
        for t in [s[j:] for j in range(len(s))] + [draw(simplices)]:
            c = b if draw(st.booleans()) else draw(carriers)
            phi[t, c] = draw(elements(ring))
            psi[t] = draw(elements(ring))
    return ring, chain, xi, phi, psi, l


@settings(max_examples=150, deadline=None)
@given(cap_cases())
def test_caps_equal_their_old_bodies(case):
    ring, chain, xi, phi, psi, l = case
    assert (outcome(caps.cap_plain, ring, chain, psi, l)
            == outcome(ref.cap_plain, ring, chain, psi, l))
    assert (outcome(caps.cap_v1, ring, xi, phi, l)
            == outcome(ref.cap_v1, ring, xi, phi, l))
    assert (outcome(caps.cap_v2, ring, xi, psi, l)
            == outcome(ref.cap_v2, ring, xi, psi, l))


@st.composite
def homotopy_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    s = draw(simplices)
    if len(s) > 1 and draw(st.booleans()):
        # u, w at the split of a back face t, the case with an output
        j = draw(st.integers(0, len(s) - 2))
        t, u, w = s[j:], s[j], s[j + 1]
    else:
        t = suffix_or_any(draw, s)
        u, w = draw(st.sampled_from(VERTICES)), draw(st.sampled_from(VERTICES))
    b = draw(simplices)
    c = b if draw(st.booleans()) else draw(simplices)
    return ring, u, w, s, b, t, c, draw(elements(ring))


@settings(max_examples=300, deadline=None)
@given(homotopy_cases())
def test_homotopies_equal_their_old_bodies(case):
    for name in ("_b_homotopy_plain", "_b_homotopy_v1", "_b_homotopy_v2"):
        assert (outcome(getattr(caps, name), *case)
                == outcome(getattr(ref, name), *case)), name


@st.composite
def boundary_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    plain = draw(chains(simplices, ring))
    local = draw(chains(st.tuples(simplices, simplices), ring))
    return ring, plain, local


@settings(max_examples=100, deadline=None)
@given(boundary_cases())
def test_chain_boundaries_equal_their_old_bodies(case):
    ring, plain, local = case
    X = FIXTURES["t4"]()  # read by neither boundary
    assert (outcome(caps.d_chain_plain, X, ring, plain)
            == outcome(ref.d_chain_plain, X, ring, plain))
    assert (outcome(caps.d_chain_local, X, ring, local)
            == outcome(ref.d_chain_local, X, ring, local))


@st.composite
def subtract_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    # few keys, so that out and chain share some; res re-sorts each into
    # a drawn vertex order (its signs are not read)
    order = draw(st.permutations(VERTICES))
    res = {s: (tuple(sorted(s, key=order.index)), None)
           for r in (1, 2) for s in permutations(VERTICES, r)}
    keys = st.sampled_from(list(res))
    bt = draw(st.none() | keys)
    labels = keys if bt is None else st.tuples(keys, keys)
    chain = draw(chains(labels, ring))
    out = {}
    for k in draw(st.lists(st.sampled_from(list(res)), max_size=4)):
        out[res[k][0] if bt is None else (res[k][0], bt)] = \
            draw(elements(ring))
    return ring, out, chain, draw(elements(ring)), res, bt


@settings(max_examples=150, deadline=None)
@given(subtract_cases())
def test_subtractions_equal_their_old_bodies(case):
    ring, out, chain, a, res, bt = case
    resorted = {(res[k][0] if bt is None else (res[k[0]][0], bt)): v
                for k, v in chain.items()}
    assert (in_place(caps._subtract, ring, out, resorted, a)
            == in_place(ref._subtract, ring, out, resorted, a))
    assert (in_place(caps._subtract_resorted, ring, out, res, bt, chain)
            == in_place(ref._subtract_resorted, ring, out, res, bt, chain))


@st.composite
def vector_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    keys = st.sampled_from("abcde")
    u, v = draw(chains(keys, ring)), draw(chains(keys, ring))
    if draw(st.booleans()):
        # v equal to u, in another order and with zeros added
        v = dict(reversed(list(u.items())))
        v.update({k: ring.zero() for k in draw(st.lists(keys))
                  if k not in v})
    return ring, u, v


@settings(max_examples=150, deadline=None)
@given(vector_cases())
def test_vector_helpers_equal_their_old_bodies(case):
    ring, u, v = case
    for name in ("vec_add", "vec_sub", "vec_eq"):
        assert (outcome(getattr(matrices, name), ring, u, v)
                == outcome(getattr(ref, name), ring, u, v)), name


# small complexes, each with a subcomplex that puts its vertices last and
# one that does not (the maps run on the reoriented complex then)
MV_CASES = [(FIXTURES["t4"], (2, 3)), (FIXTURES["t4"], (0,)),
            (FIXTURES["rp6"], (3, 4, 5)), (FIXTURES["rp6"], (0, 2)),
            (FIXTURES["bowtie"], (0, 3)), (FIXTURES["delta2"], (0, 1, 2))]


@st.composite
def mv_cases(draw):
    fn, verts = draw(st.sampled_from(MV_CASES))
    X = fn()
    L = Subcomplex(X, verts)
    if not is_vc_before(X, L):
        X, L = reorient_vc_before(X, L)
    ring = draw(st.sampled_from(RINGS))
    D = MVDoubleComplex(X, L, ring)
    gens = [g for l in range(X.dim + 1) for k in range(l, X.dim + 1)
            for g in D.generators(l, k)]
    chain = draw(chains(st.sampled_from(gens), ring, max_size=6))
    rel = draw(chains(st.sampled_from(list(X.all_simplices())), ring))
    return D, ref.ReferenceMV(X, L, ring), chain, rel


@settings(max_examples=150, deadline=None)
@given(mv_cases())
def test_structure_maps_equal_their_old_bodies(case):
    D, R, chain, rel = case
    for name in ("vertical_d", "horizontal_i", "total_d", "lambda_lift",
                 "kappa", "c_map"):
        assert (outcome(getattr(D, name), chain)
                == outcome(getattr(R, name), chain)), name
    assert outcome(D.epsilon, rel) == outcome(R.epsilon, rel)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((ZZ, QQ)).flatmap(
    lambda ring: st.tuples(st.just(ring), elements(ring), elements(ring))))
def test_sub_is_add_of_neg_over_z_and_q(case):
    ring, a, b = case
    new, old = ring.sub(a, b), ring.add(a, ring.neg(b))
    assert (new, type(new)) == (old, type(old))


def _as_built(X):
    return X.order, X.pos, X.by_dim, X._simplices, X.dim


@pytest.mark.parametrize("name, X", every_fixture())
def test_with_order_equals_the_constructor(name, X):
    orders = [X.order, X.order[::-1]]
    shuffled = list(X.order)
    random.Random(name).shuffle(shuffled)
    orders.append(tuple(shuffled))
    for order in orders:
        built = SimplicialComplex(list(X._simplices), order=order)
        assert _as_built(X.with_order(order)) == _as_built(built)
        assert X.with_order(list(order)).cofaces(X.order[:1]) == \
            built.cofaces(X.order[:1])
    with pytest.raises(ValueError, match="duplicate vertices in order"):
        X.with_order(X.order + X.order[:1])
    with pytest.raises(ValueError, match="vertices missing from order"):
        X.with_order(X.order[1:])


def test_with_order_keeps_only_the_vertices_of_simplices():
    # an order may name a vertex no simplex has; another order may drop it
    X = SimplicialComplex([[0, 1]], order=[0, 1, 2])
    assert _as_built(X.with_order([1, 0])) == _as_built(
        SimplicialComplex([[0, 1]], order=[1, 0]))


def _old_contains(L, simplex):
    return (L.parent.contains(simplex)
            and all(v in L.vertex_set for v in simplex))


@pytest.mark.parametrize("name, X", every_fixture())
def test_subcomplex_contains_equals_its_old_expression(name, X):
    rng = random.Random(name)
    order = list(X.order)
    subsets = [order, order[:1], order[len(order) // 2:],
               rng.sample(order, len(order) // 2)]
    candidates = list(X.all_simplices())
    candidates += [s[::-1] for s in candidates if len(s) > 1]  # unsorted
    candidates += [(), (order[0], order[0]), ("nowhere",),
                   (order[0], "nowhere"), tuple(order)]
    for verts in subsets:
        L = Subcomplex(X, verts)
        for s in candidates:
            for simplex in (s, list(s)):
                new = L.contains(simplex)
                assert (new, type(new)) == (_old_contains(L, simplex), bool)
