"""Exact rings, Smith normal form, solving, and homology presentations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import homology, matrices
from lochom.fixtures import FIXTURES, bowtie, circle3, rp2_six, sphere2
from lochom.complexes import SimplicialComplex
from lochom.homology import (ChainComplex, HomologyPresentation,
                             induced_matrix, is_isomorphism)
from lochom.localhomology import local_complex
from lochom.matrices import (Matrix, kernel_basis, kernel_coordinates,
                             smith_normal_form, solve, vec_add, vec_scale)
from lochom.rings import GF, QQ, ZZ, PrimeField, ring_from_name
from lochom.sheaves import simplicial_chain_complex, simplicial_cochain_complex


def dense_matrix(ring, rows):
    r = len(rows)
    c = len(rows[0]) if rows else 0
    entries = {}
    for i in range(r):
        for j in range(c):
            if rows[i][j]:
                entries[(i, j)] = ring.from_int(rows[i][j])
    return Matrix(ring, tuple(range(r)), tuple(range(c)), entries)


def test_ring_selectors():
    assert ring_from_name("z") is ZZ
    assert ring_from_name("q") is QQ
    assert ring_from_name("fp:7") is GF(7)
    with pytest.raises(ValueError):
        ring_from_name("r")


# the operations the Ring docstring says each ring defines
RING_OPERATIONS = ("zero", "one", "from_int", "add", "neg", "mul", "is_zero",
                   "is_unit", "inv", "divmod", "canonical_unit")


@pytest.mark.parametrize("name", ["z", "q", "fp:2", "fp:3", "fp:7"])
def test_every_ring_defines_the_required_operations(name):
    ring = ring_from_name(name)
    for op in RING_OPERATIONS:
        assert callable(getattr(ring, op, None)), (name, op)
    one, two = ring.one(), ring.from_int(2)
    assert ring.is_zero(ring.zero()) and not ring.is_zero(one)
    assert ring.sub(ring.add(one, two), two) == one
    assert ring.mul(ring.inv(one), one) == one and ring.is_unit(one)
    assert ring.div(ring.mul(two, one), one) == two
    assert ring.mul(ring.canonical_unit(ring.neg(one)), ring.neg(one)) == one


def test_prime_field_primality_matches_trial_division():
    for n in range(-2, 3000):
        prime = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            PrimeField(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == prime, n
    # composites that pass Miller-Rabin for every prime base up to 31 and up
    # to 37 respectively
    for n in (3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_integer_divmod_small_remainder():
    # remainders biased toward smallest absolute value
    q, r = ZZ.divmod(7, 3)
    assert q * 3 + r == 7 and abs(r) <= 1


def test_snf_diagonal_oracle():
    # invariant factors of [[2,4,4],[-6,6,12],[10,-4,-16]] are 2, 6, 12
    m = dense_matrix(ZZ, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    s = smith_normal_form(m)
    assert [abs(d) for d in s.diagonals] == [2, 6, 12]


def test_snf_transforms_are_inverse_witnesses():
    m = dense_matrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    s = smith_normal_form(m)
    assert (s.U @ s.Uinv - Matrix.identity(ZZ, m.row_labels)).is_zero()
    assert (s.V @ s.Vinv - Matrix.identity(ZZ, m.col_labels)).is_zero()
    # U m V is the diagonal matrix
    d = s.U @ m @ s.V
    for (i, j), v in d.entries.items():
        if i != j:
            assert ZZ.is_zero(v)


def test_snf_builds_each_transform_once_and_only_when_read(monkeypatch):
    m = dense_matrix(ZZ, [[2, 4, 0], [0, 6, 3]])
    built = []
    init = Matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    assert len(kernel_basis(m)) == 1
    assert len(built) == 1
    built.clear()
    s = smith_normal_form(m)
    assert built == []
    assert s.U is s.U
    assert len(built) == 1
    s.Uinv, s.V, s.Vinv, s.U, s.V
    assert len(built) == 4


def test_solve_respects_divisibility():
    m = dense_matrix(ZZ, [[2]])
    assert solve(m, {0: ZZ.from_int(4)}) is not None
    assert solve(m, {0: ZZ.from_int(3)}) is None
    mq = dense_matrix(QQ, [[2]])
    assert solve(mq, {0: Fraction(3)}) is not None


def test_kernel_basis_saturated():
    # kernel of [1 1 1] over Z is generated by primitive vectors
    m = dense_matrix(ZZ, [[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        from math import gcd
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        assert g == 1


def test_homology_oracles():
    # classical homology: circle, 2-sphere, projective plane, wedge of disks
    def ranks(X, ring):
        cx = simplicial_chain_complex(X, ring)
        return {k: cx.homology(k).rank_summary for k in range(X.dim + 1)}

    assert ranks(circle3(), ZZ) == {0: (1, []), 1: (1, [])}
    assert ranks(sphere2(), ZZ) == {0: (1, []), 1: (0, []), 2: (1, [])}
    assert ranks(rp2_six(), ZZ) == {0: (1, []), 1: (0, [2]), 2: (0, [])}
    assert ranks(rp2_six(), GF(2)) == {0: (1, []), 1: (1, []), 2: (1, [])}
    assert ranks(rp2_six(), QQ) == {0: (1, []), 1: (0, []), 2: (0, [])}
    assert ranks(bowtie(), ZZ) == {0: (1, []), 1: (0, []), 2: (0, [])}


SUMMARY_RINGS = (ZZ, QQ, GF(2), GF(3))


def evaluation_dual(cx):
    """Hom(C, R): the same bases, transposed differentials, opposite shift."""
    return ChainComplex(cx.ring, cx.spaces,
                        {k: cx.differential(k - cx.shift).transpose()
                         for k in cx.degrees()}, shift=-cx.shift)


def assert_summaries_match_presentations(cx, degrees):
    """Both factor summaries of cx equal the presentations' rank_summary, in
    value and type, in every degree given; returns the homology summaries."""
    dual = evaluation_dual(cx)
    out = {}
    for k in degrees:
        out[k] = cx.homology_summary(k)
        assert repr(out[k]) == repr(cx.homology(k).rank_summary), k
        assert repr(cx.cohomology_summary(k)) == \
            repr(dual.homology(k).rank_summary), k
    return out


def generated_complex(rng, ring, top=3):
    """Integer differentials C_top -> ... -> C_0 with random invariant
    factors (torsion included), hidden by random unimodular basis changes,
    read in `ring`."""
    rank = {k: rng.randint(0, 2) for k in range(1, top + 1)}
    rank[0] = rank[top + 1] = 0
    dim = {k: rank[k] + rank[k + 1] + rng.randint(0, 2)
           for k in range(top + 1)}
    d = {}
    for k in range(1, top + 1):
        # the last rank[k] basis vectors of C_k onto multiples of the first
        # rank[k] of C_(k-1), which d_(k-1) kills
        d[k] = [[0] * dim[k] for _ in range(dim[k - 1])]
        for i in range(rank[k]):
            d[k][i][dim[k] - rank[k] + i] = rng.choice((1, 2, 3, 4, 6, 9))
    for k in range(top + 1):
        for _ in range(2 * dim[k] if dim[k] > 1 else 0):
            i, j = rng.sample(range(dim[k]), 2)
            c = rng.choice((-2, -1, 1, 2))
            # basis change e_i <- e_i + c e_j: d_k gains c col_j in col_i,
            # d_(k+1) loses c row_i from row_j
            for row in d.get(k, ()):
                row[i] += c * row[j]
            if k + 1 in d:
                d[k + 1][j] = [x - c * y
                               for x, y in zip(d[k + 1][j], d[k + 1][i])]
    spaces = {k: tuple((k, i) for i in range(dim[k])) for k in dim}
    diffs = {k: Matrix(ring, spaces[k - 1], spaces[k],
                       {(spaces[k - 1][i], spaces[k][j]): ring.from_int(v)
                        for i, row in enumerate(m) for j, v in enumerate(row)
                        if ring.from_int(v)})
             for k, m in d.items()}
    return ChainComplex(ring, spaces, diffs)


def test_factor_summaries_match_presentations_on_generated_complexes():
    with_torsion = 0
    for seed in range(150):
        for ring in SUMMARY_RINGS:
            cx = generated_complex(random.Random(seed), ring)
            summaries = assert_summaries_match_presentations(cx, range(-1, 5))
            with_torsion += any(t for _, t in summaries.values())
    assert with_torsion > 50


def barycentric_subdivision(X):
    """sd X: a vertex per simplex (its index), a top simplex per flag."""
    index = {s: i for i, s in enumerate(X.all_simplices())}
    flags = set()
    for m in X.maximal_simplices():
        stack = [((), ())]
        while stack:
            face, flag = stack.pop()
            if len(face) == len(m):
                flags.add(flag)
            for v in m:
                if v not in face:
                    bigger = X.canon(face + (v,))
                    stack.append((bigger, flag + (index[bigger],)))
    return SimplicialComplex(sorted(flags))


@pytest.mark.parametrize("ring", SUMMARY_RINGS, ids=lambda r: r.name)
def test_factor_summaries_match_presentations_on_rp6(ring):
    # the cochain complexes are the evaluation duals of the chain complexes,
    # plus the plain one as `simplicial_cochain_complex` builds it
    for X in (rp2_six(), barycentric_subdivision(rp2_six())):
        assert_summaries_match_presentations(
            simplicial_cochain_complex(X, ring), range(-1, 4))
        for reduced in (False, True):
            cx = simplicial_chain_complex(X, ring, reduced=reduced)
            summaries = assert_summaries_match_presentations(cx, range(-2, 4))
            if ring is ZZ:
                assert summaries[1] == (0, [2])
                assert cx.cohomology_summary(2) == (0, [2])


def test_induced_identity_is_isomorphism():
    X = sphere2()
    cx = simplicial_chain_complex(X, ZZ)
    h2 = cx.homology(2)
    m = induced_matrix(h2, h2, lambda chain: chain)
    assert is_isomorphism(h2, h2, m)


def test_induced_zero_map_not_isomorphism():
    X = circle3()
    cx = simplicial_chain_complex(X, ZZ)
    h1 = cx.homology(1)
    m = induced_matrix(h1, h1, lambda chain: {})
    assert not is_isomorphism(h1, h1, m)


def _free_presentation(ring, labels):
    """Homology of free modules on `labels` with no differentials: one free
    generator per label."""
    return HomologyPresentation(ring, Matrix(ring, (), labels),
                                Matrix(ring, labels, ()))


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2)), ids=lambda r: r.name)
def test_a_projection_with_a_free_kernel_is_not_an_isomorphism(ring):
    # R^2 -> R onto the first coordinate is onto, so only the kernel test
    # can refuse it: the second generator is free and maps to zero
    src = _free_presentation(ring, ("a", "b"))
    tgt = _free_presentation(ring, ("c",))
    assert is_isomorphism(src, src, induced_matrix(src, src, dict))
    m = induced_matrix(src, tgt, lambda chain: {
        "c": v for lbl, v in chain.items() if lbl == "a"})
    assert m.to_dense() == [[ring.one(), ring.zero()]]
    assert not is_isomorphism(src, tgt, m)


def test_induced_matrix_refuses_a_torsion_generator_sent_to_a_free_one():
    # Z/2 -> Z/2 is well defined; the same generator sent into Z is not,
    # since twice its image is nonzero there
    z2 = HomologyPresentation(ZZ, Matrix(ZZ, (), ("a",)),
                              Matrix(ZZ, ("a",), ("r",), {("a", "r"): 2}))
    assert z2.rank_summary == (0, [2])
    assert induced_matrix(z2, z2, dict).to_dense() == [[1]]
    z = _free_presentation(ZZ, ("c",))
    with pytest.raises(ValueError, match="not well defined on torsion"):
        induced_matrix(z2, z, lambda chain: {"c": chain["a"]})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_random_transform_consistency(rows):
    m = dense_matrix(ZZ, rows)
    s = smith_normal_form(m)
    d = s.U @ m @ s.V
    # diagonal, with each factor dividing the next
    diag = []
    for (i, j), v in d.entries.items():
        if not ZZ.is_zero(v):
            assert i == j
    for i, v in enumerate(s.diagonals):
        diag.append(abs(v))
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
    assert (s.Uinv @ d @ s.Vinv - m).is_zero()


KERNEL_RINGS = (ZZ, QQ, GF(2), GF(3))


def fixture_and_local_complexes(ring):
    """Every fixture's chain complex and the local complex at each of its
    simplices, labelled."""
    for make in FIXTURES.values():
        X = make()
        yield simplicial_chain_complex(X, ring)
        for s in X.all_simplices():
            yield local_complex(X, ring, s).chain_complex()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
def test_kernel_coordinates_match_solve_against_the_kernel_matrix(ring):
    rnd = random.Random(5)
    found = {"cycle": 0, "boundary": 0, "non-cycle": 0}
    for cx in fixture_and_local_complexes(ring):
        for k in cx.degrees():
            d_out = cx.differential(k)
            s = smith_normal_form(d_out)
            kvecs = kernel_basis(d_out, s)
            K = Matrix.from_columns(ring, cx.basis(k), range(len(kvecs)), kvecs)
            combos = []
            for u, v in zip(kvecs, kvecs[1:] + kvecs[:1]):
                a, b = (ring.from_int(rnd.randint(-3, 3)) for _ in "ab")
                combos.append(vec_add(ring, vec_scale(ring, a, u),
                                      vec_scale(ring, b, v)))
            d_in = cx.differential(k - cx.shift)
            boundaries = [d_in.column(c) for c in d_in.col_labels]
            singles = [{b: ring.one()} for b in cx.basis(k)]
            strays = [vec_add(ring, z, e) for z, e in zip(kvecs, singles)]
            for kind, vecs in (("cycle", [{}] + kvecs + combos),
                               ("boundary", boundaries),
                               ("non-cycle", singles + strays)):
                for v in vecs:
                    y = kernel_coordinates(s, v)
                    assert y == solve(K, v), (k, v)
                    if kind == "non-cycle":
                        found[kind] += y is None
                    else:
                        assert y is not None
                        found[kind] += 1
    assert all(found.values()), found


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
def test_homology_factors_two_matrices(monkeypatch, ring):
    # the SNF of d_out gives the kernel basis and the cycle coordinates; the
    # other SNF is of the relations of the cokernel.  Both go through the
    # complex's memo, so no matrix is eliminated twice per complex: the
    # relations of a degree whose d_out is zero are d_in by position
    asked, eliminated = [], []
    factor, eliminate = homology.factored, matrices.smith_normal_form

    def counted(memo, M, *args):
        asked.append(M.shape)
        return factor(memo, M, *args)

    def recorded(M, *args):
        eliminated.append(matrices._positions(M))
        return eliminate(M, *args)

    monkeypatch.setattr(homology, "factored", counted)
    monkeypatch.setattr(matrices, "smith_normal_form", recorded)
    nonempty_kernels = hits = 0
    for cx in fixture_and_local_complexes(ring):
        eliminated.clear()
        for k in cx.degrees():
            asked.clear()
            h = cx.homology(k)
            assert len(asked) == 2, (k, asked)
            nonempty_kernels += bool(h.cycles)
        assert len(set(eliminated)) == len(eliminated)
        hits += 2 * len(cx.degrees()) - len(eliminated)
    assert nonempty_kernels and hits


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.name)
def test_presentations_refuse_chains_that_are_not_cycles(ring):
    one = ring.one()
    d_out = Matrix(ring, ("v",), ("a", "b"), {("v", "a"): one})
    with pytest.raises(ValueError, match="incoming boundary is not a cycle"):
        HomologyPresentation(ring, d_out,
                             Matrix(ring, ("a", "b"), ("t",), {("a", "t"): one}))
    h = HomologyPresentation(ring, d_out,
                             Matrix(ring, ("a", "b"), ()))
    assert h.coordinates({"b": one}) == [one]
    assert h.coordinates({}) == [ring.zero()]
    for chain in ({"a": one}, {"a": one, "b": one}):
        assert h.cycle_coordinates(chain) is None
        with pytest.raises(ValueError, match="chain is not a cycle"):
            h.coordinates(chain)
