"""`Matrix.column` and `Matrix.apply` read a column index.  They must give
what a scan of every entry gives (the code below is the scan they replaced):
the same values, value types and key order, on plain sparse matrices, on
SNF transforms (rebuilt from the logs, and the one `SNF` builds,
`Vinv_kernel`) and on matrices whose `entries` were assigned after
construction.  Also: the SNF of a matrix with no entries runs no
elimination, and the SNFs the stalks of a `LocalContext` hold are records
of their diagonals and logs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_reference
from lochom import matrices
from lochom.fixtures import rp2_six
from lochom.homology import CokerPresentation, CycleBasis
from lochom.localhomology import LocalContext
from lochom.matrices import Matrix, invariant_factors, smith_normal_form
from lochom.rings import GF, QQ, ZZ
from fixture_complexes import sphere2

RINGS = (ZZ, QQ, GF(2), GF(3), GF(7))


def scan_column(M, c):
    return {r: v for (r, cc), v in M.entries.items() if cc == c}


def scan_apply(M, vec):
    ring = M.ring
    out = {}
    for (r, c), val in M.entries.items():
        if c in vec:
            out[r] = ring.add(out.get(r, ring.zero()), ring.mul(val, vec[c]))
    return matrices.vec_clean(ring, out)


def fingerprint(v):
    return list(v.items()), [type(x) for x in v.values()]


@st.composite
def sparse_cases(draw):
    """A ring, a sparse matrix whose entries come in a drawn order, and
    vectors keyed by some of its columns, by labels it does not have, and
    with zero values."""
    ring = draw(st.sampled_from(RINGS))
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    cells = [(i, j) for i in range(m) for j in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=len(cells))) if cells else []
    entries = {(f"r{i}", f"c{j}"): ring.from_int(draw(st.integers(-5, 5)))
               for i, j in chosen}
    M = Matrix(ring, [f"r{i}" for i in range(m)],
               [f"c{j}" for j in range(n)], entries)
    keys = draw(st.lists(st.sampled_from([f"c{j}" for j in range(n)]
                                         + ["elsewhere"]),
                         unique=True, max_size=n + 1))
    vecs = [{k: ring.from_int(draw(st.integers(-4, 4))) for k in keys}
            for _ in range(2)]
    return ring, M, vecs


def assert_reads_match_scan(M, vecs):
    for c in M.col_labels + ("elsewhere",):
        assert fingerprint(M.column(c)) == fingerprint(scan_column(M, c))
    for vec in vecs:
        assert fingerprint(M.apply(vec)) == fingerprint(scan_apply(M, vec))


@settings(max_examples=200, deadline=None)
@given(sparse_cases())
def test_column_and_apply_match_the_entry_scan(case):
    ring, M, vecs = case
    assert_reads_match_scan(M, vecs)
    # the transforms of its SNF
    s = smith_normal_form(M)
    built = snf_reference.transforms(s)
    for name, labels in (("U", M.row_labels), ("Uinv", M.row_labels),
                         ("V", M.col_labels), ("Vinv", M.col_labels)):
        T = getattr(built, name)
        tvecs = [{lbl: x for lbl, x in zip(labels, vec.values())}
                 for vec in vecs]
        assert_reads_match_scan(T, tvecs)
    assert_reads_match_scan(s.Vinv_kernel, vecs)
    # entries assigned after the index was built must replace it
    M.entries = dict(reversed([(k, ring.mul(v, v))
                               for k, v in M.entries.items()]))
    assert_reads_match_scan(M, vecs)


@settings(max_examples=100, deadline=None)
@given(sparse_cases())
def test_transform_entries_match_the_dense_reference(case):
    # transforms rebuilt from the logs keep the reference's entry order
    _, M, _ = case
    reference = snf_reference.smith_normal_form(M)
    s = snf_reference.transforms(smith_normal_form(M))
    for name in ("U", "Uinv", "V", "Vinv"):
        mine, theirs = getattr(s, name), getattr(reference, name)
        assert list(mine.entries.items()) == list(theirs.entries.items())


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0), (3, 4), (1, 1)])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_zero_matrices_skip_the_elimination(monkeypatch, ring, shape):
    m, n = shape
    M = Matrix(ring, range(m), [f"c{j}" for j in range(n)])
    reference = snf_reference.smith_normal_form(M)

    def refuse(*args):
        raise AssertionError("a zero matrix was eliminated")

    monkeypatch.setattr(matrices, "_eliminate", refuse)
    s = snf_reference.transforms(smith_normal_form(M))
    assert s.diagonals == reference.diagonals == [] and s.rank == 0
    assert invariant_factors(M) == []
    for name in ("U", "Uinv", "V", "Vinv"):
        mine, theirs = getattr(s, name), getattr(reference, name)
        assert (mine.row_labels, mine.col_labels) == \
            (theirs.row_labels, theirs.col_labels)
        assert list(mine.entries.items()) == list(theirs.entries.items())
        assert [type(v) for v in mine.entries.values()] == \
            [type(v) for v in theirs.entries.values()]


# all an SNF holds: a cokernel runs its relations' row log, and a cycle
# basis its column log, apart from the V^-1 rows past the rank it builds on
# its first `cycle_coordinates`
RECORD = frozenset(("matrix", "diagonals", "rank", "log", "col_log"))


@pytest.mark.parametrize("X", [sphere2(), rp2_six()], ids=["s2", "rp2"])
@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
def test_cached_presentations_hold_only_diagonals_and_logs(X, ring):
    ctx = LocalContext(X, ring)
    held = {dual: [ctx.positional_stalk(s, X.dim, dual)[0]
                   for s in X.all_simplices()] for dual in (False, True)}
    # the sheaf's stalks are kernel bases alone (no relations, no
    # generators), the cosheaf's cokernel presentations
    assert {type(pres) for pres in held[False]} == {CycleBasis}
    assert {type(pres) for pres in held[True]} == {CokerPresentation}
    assert {frozenset(vars(pres.snf)) for pres in held[True]} == {RECORD}
    assert {frozenset(vars(pres.out_snf))
            for pres in held[False]} == {RECORD}
    # what they keep still answers: a generator projects to its own
    # coordinate, and a cycle has coordinates in the cycle basis
    for pres in held[True]:
        for j in range(len(pres)):
            assert pres.project(pres.lift(j)) == [
                ring.one() if k == j else ring.zero()
                for k in range(len(pres))]
    for pres in held[False]:
        for i, z in enumerate(pres.cycles):
            assert pres.cycle_coordinates(z) == {i: ring.one()}
        assert vars(pres.out_snf).keys() == RECORD | {"Vinv_kernel"}
    assert {frozenset(vars(pres.snf)) for pres in held[True]} == {RECORD}
