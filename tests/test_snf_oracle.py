"""The Smith normal form kernel against the dense reference elimination.

Both must pick the same pivots and perform the same elementary operations,
so every output (diagonals, U, U^-1, V, V^-1) must agree entry for entry,
in value, type and entry order.  The factors-only path, `invariant_factors`,
must return the reference's diagonals in value, type and order.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_reference
from lochom.complexes import parse_complex
from lochom.matrices import Matrix, invariant_factors, smith_normal_form
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex

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
    assert snf_fingerprint(smith_normal_form(M)) == snf_fingerprint(reference)
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
# row (column) 0, then clear another row (column) with the new pivot 1
@pytest.mark.parametrize("rows", [[[2, 0], [0, 3]],
                                  [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
                                  [[4, 6], [6, 9], [2, 3]],
                                  [[0, 0, 0], [0, 6, 0], [0, 0, 4]],
                                  [[2, 0, 0], [4, 0, 6], [3, 5, 0], [8, 0, 0]],
                                  [[2, 4, 3, 8], [0, 0, 5, 0], [0, 6, 0, 0]]])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_snf_matches_dense_reference_on_gcd_and_offender_cases(ring, rows):
    assert_matches_reference(integer_matrix(ring, rows, len(rows[0])))


@pytest.mark.parametrize("name", ["rp6", "t4"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_snf_matches_dense_reference_on_fixture_boundaries(ring, name):
    with open(os.path.join(FIXDIR, name + ".cplx"), encoding="utf-8") as fh:
        X = parse_complex(fh.read())
    for reduced in (False, True):
        cx = simplicial_chain_complex(X, ring, reduced=reduced)
        for k in range(0, X.dim + 1):
            d = cx.differential(k)
            assert_matches_reference(d)
            assert_matches_reference(d.transpose())
