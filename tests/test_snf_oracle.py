"""The Smith normal form kernel against the dense reference elimination.

Both must pick the same pivots and perform the same elementary operations,
so every output (diagonals, U, U^-1, V, V^-1) must agree entry for entry,
in value, type and entry order (the kernel's rebuilt from its logs by
`snf_reference.transforms`).  The factors-only path, `invariant_factors`,
must return the reference's diagonals in value, type and order.  A
factorization read from a memo (`factored`, `factors`) must equal a fresh
one in the same way.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_reference
from local_reference import as_chain_complex, reference_local_complex
from snf_reference import transforms
from lochom.complexes import parse_complex
from lochom.localhomology import LocalContext
from lochom.matrices import (Matrix, _positions, factored, factors,
                             invariant_factors, smith_normal_form)
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex
from fixture_complexes import FIXTURES

RINGS = (ZZ, QQ, GF(2), GF(3), GF(7))
FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def snf_fingerprint(s):
    out = [repr(s.diagonals), [type(d) for d in s.diagonals]]
    for X in (s.U, s.Uinv, s.V, s.Vinv):
        out.append((X.row_labels, X.col_labels, repr(list(X.entries.items())),
                    [type(v) for v in X.entries.values()]))
    return out


def factors_fingerprint(diagonals):
    return repr(diagonals), [type(d) for d in diagonals]


def assert_matches_reference(M):
    reference = snf_reference.smith_normal_form(M)
    assert snf_fingerprint(transforms(smith_normal_form(M))) == \
        snf_fingerprint(reference)
    assert factors_fingerprint(invariant_factors(M)) == \
        factors_fingerprint(reference.diagonals)


def integer_matrix(ring, rows, ncols):
    entries = {(i, j): ring.from_int(v) for i, row in enumerate(rows)
               for j, v in enumerate(row) if ring.from_int(v) != 0}
    return Matrix(ring, range(len(rows)), range(ncols), entries)


@st.composite
def small_matrices(draw):
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    density = draw(st.sampled_from((0.15, 0.4, 0.7, 1.0)))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            keep = draw(st.floats(0, 1)) < density
            v = draw(st.integers(-9, 9)) if keep else 0
            row.append(0 if i in zero_rows or j in zero_cols else v)
        rows.append(row)
    return integer_matrix(ring, rows, n)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_matches_dense_reference_on_small_matrices(M):
    assert_matches_reference(M)


# [[2, 0], [0, 3]] takes the offender step and then the gcd step; the 3x3
# matrix has invariant factors 2, 6, 12; the 4x3 matrix and its transpose
# clear a row (column) with the pivot 2, then take a gcd step that widens
# row (column) 0, then clear another row (column) with the new pivot 1; the
# pivot 3 of the last matrix divides 6 and 9, so over Z it eliminates them
# by `divmod` and not by a unit's inverse; in the 3x5 matrix a column gcd
# step over Z cancels an entry below the pivot, which leaves its sparse row
GCD_AND_OFFENDER_CASES = [[[2, 0], [0, 3]],
                          [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
                          [[4, 6], [6, 9], [2, 3]],
                          [[0, 0, 0], [0, 6, 0], [0, 0, 4]],
                          [[2, 0, 0], [4, 0, 6], [3, 5, 0], [8, 0, 0]],
                          [[2, 4, 3, 8], [0, 0, 5, 0], [0, 6, 0, 0]],
                          [[3, 6, 9], [9, 0, 6], [6, 9, 0]],
                          [[-6, -2, 0, 0, 0], [2, -2, 4, 6, 5],
                           [0, 3, 0, 3, 9]]]


@pytest.mark.parametrize("rows", GCD_AND_OFFENDER_CASES)
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_snf_matches_dense_reference_on_gcd_and_offender_cases(ring, rows):
    assert_matches_reference(integer_matrix(ring, rows, len(rows[0])))


# sd(rp6) and sd(torus) give 90x60 and 126x84 boundaries; the dense
# reference takes about 30 s on sd(torus) over Q, so they run over Z and
# GF(3) only: both scale pivots by a unit other than 1, as GF(2) never does
@pytest.mark.parametrize("ring, name", [
    *((ring, name) for name in ("rp6", "t4") for ring in RINGS),
    *((ring, name) for name in ("sd_rp6", "sd_torus") for ring in (ZZ, GF(3)))],
    ids=lambda x: getattr(x, "name", x))
def test_snf_matches_dense_reference_on_fixture_boundaries(ring, name):
    with open(os.path.join(FIXDIR, name + ".cplx"), encoding="utf-8") as fh:
        X = parse_complex(fh.read())
    for reduced in (False, True):
        cx = simplicial_chain_complex(X, ring, reduced=reduced)
        # the augmentation changes d_0 alone
        for k in range(0, 1 if reduced else X.dim + 1):
            d = cx.differential(k)
            assert_matches_reference(d)
            assert_matches_reference(d.transpose())


def test_memo_tells_apart_matrices_that_differ_only_in_shape():
    # equal entries by position, different zero rows or columns
    memo = {}
    for rows in ([[2]], [[2], [0]], [[2, 0]], [[2, 0], [0, 0]]):
        M = integer_matrix(ZZ, rows, len(rows[0]))
        assert snf_fingerprint(transforms(factored(memo, M))) == \
            snf_fingerprint(transforms(smith_normal_form(M)))
    assert len(memo) == 4


def _read(name):
    if name in FIXTURES:
        return FIXTURES[name]()
    with open(os.path.join(FIXDIR, name + ".cplx"), encoding="utf-8") as fh:
        return parse_complex(fh.read())


def memo_owners(X, ring):
    """Each memo with the complexes that factor through it: a context's
    local and link complexes (the local ones labelled, as
    `local_reference` builds them, the links with position labels), and
    the global chains (the cochains are their dual, whose differentials
    are the transposes)."""
    ctx = LocalContext(X, ring)
    yield ctx.memo, [cx for s in X.all_simplices() for cx in (
        reference_local_complex(X, ring, s), as_chain_complex(
            ctx.complex(s).link()))]
    chains = simplicial_chain_complex(X, ring)
    yield chains.memo, [chains]


@pytest.mark.parametrize("name", [*FIXTURES, "sd_rp6", "sd_torus"])
@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
def test_memo_hits_equal_a_fresh_factorization(ring, name):
    X = _read(name)
    for memo, complexes in memo_owners(X, ring):
        mats = [M for cx in complexes for d in cx.diffs.values()
                for M in (d, d.transpose())]
        fresh = [smith_normal_form(M) for M in mats]
        # first the factors alone: stored, or read off stored factors
        for M, s in zip(mats, fresh):
            assert factors_fingerprint(factors(
                memo, M.ring, _positions(M))) == \
                factors_fingerprint(s.diagonals)
        # then the full forms: stored, or a stored SNF on M's labels; and
        # the factors read off a stored SNF
        for M, s in zip(mats, fresh):
            assert snf_fingerprint(transforms(factored(memo, M))) == \
                snf_fingerprint(transforms(s))
            assert factors_fingerprint(factors(
                memo, M.ring, _positions(M))) == \
                factors_fingerprint(s.diagonals)
        if len(complexes) > 1:
            assert len(memo) < len(mats), "no local matrix repeats"
