"""The sparse elimination kernel against the verbatim dense one it replaced.

Each case runs one command line with `matrices._eliminate` recorded, then
eliminates every distinct matrix it saw twice more: with the sparse kernel,
given its nonzeros in ascending and in descending position order, and with
`dense_reference._eliminate`, the old dense kernel verbatim.  The diagonals
and the four sparsely stored transforms (with the zeros that cancel) must
agree in value, type and order, and the factors-only run must give the same
diagonals.  The sparse kernel logs its row and column operations in place of
the four transforms, so those compared are replayed from its logs
(`snf_reference.replayed`).  The command lines are those whose matrices
are large: duality and `local --dim 2` on the subdivisions over z, fp:2
and fp:3, and one run on sd2(rp6); Q, whose dense elimination is slow at
that size, runs on the small fixtures.

The logs' other readers replay them on one vector (`matrices._log_apply`):
it must give what U, U^-1, V and V^-1 rebuilt from the logs
(`snf_reference.transforms`) give, and U U^-1 and V V^-1 must be the
identity.  `solve` runs U b and V z that way, and must give what it gave
when it read the built U and V: one solution, or None off the image or
where a quotient does not divide.  A cokernel presentation projects through
that replay, and drops a key outside its basis as `Matrix.apply` does.

The kernel halves, V's columns and V^-1's rows past the rank, are replayed
from the column log alone: `kernel_basis` on each call, `SNF.Vinv_kernel`
on its first read.  They must equal the rebuilt V's and V^-1's in value,
type and key order, and `kernel_coordinates` (coordinates from V^-1's rows
past the rank, and membership from M vec = 0) must give what it gave when
it read the whole of V^-1: None exactly when V^-1 vec is nonzero before the
rank.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_reference
import dense_reference
from snf_reference import replayed, transforms
from lochom import matrices
from lochom.cli import main
from lochom.fixtures import rp2_six
from lochom.homology import CokerPresentation
from lochom.localhomology import LocalContext
from lochom.matrices import (Matrix, kernel_basis, kernel_coordinates,
                             smith_normal_form, solve)
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex
from test_snf_oracle import GCD_AND_OFFENDER_CASES, RINGS, integer_matrix

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

LINES = [
    *(f"{command} --ring {ring} --complex {name}"
      for name in ("sd_rp6", "sd_torus") for ring in ("z", "fp:2", "fp:3")
      for command in ("duality --item 1ai", "local --dim 2")),
    "duality --item 1ai --ring fp:2 --complex sd2_rp6",
    *(f"{command} --ring q --complex {name}"
      for name in ("bowtie", "rp6", "t4")
      for command in ("duality --item 1ai", "local --dim 2", "check-cm")),
]


def fingerprint(result):
    diagonals, transforms = result
    out = [repr(diagonals), [type(d) for d in diagonals]]
    for rows in transforms or ():
        out.append([(repr(list(row.items())), [type(v) for v in row.values()])
                    for row in rows])
    return out


def with_log_rows(ring, shape, result):
    """A tracked sparse result as the dense kernel gives it: U's rows,
    U^-1's columns, V's columns and V^-1's rows, replayed from its logs."""
    diagonals, (log, col_log) = result
    return diagonals, replayed(ring, shape, log, col_log)


def assert_kernels_agree(ring, key):
    (m, n), nonzeros = key
    ordered = sorted(nonzeros, key=lambda e: e[:2])
    M = Matrix(ring, range(m), range(n), {(i, j): v for i, j, v in ordered})
    expected = fingerprint(dense_reference._eliminate(M, True))
    for entries in (ordered, ordered[::-1]):
        source = (ring, ((m, n), tuple(entries)))
        assert fingerprint(with_log_rows(
            ring, (m, n), matrices._eliminate(source, True))) == expected
        assert fingerprint(matrices._eliminate(source, False)) == \
            expected[:2]


def captured(line, tmp_path):
    """Each distinct matrix `line` eliminates, as (ring, key)."""
    seen = {}
    eliminate = matrices._eliminate

    def recorded(source, track):
        ring, key = source
        seen[(ring.name, key)] = source
        return eliminate(source, track)

    command, name = line.rsplit(" ", 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrices, "_eliminate", recorded)
        main([*command.split(), os.path.join(FIXDIR, name + ".cplx"),
              "--out", str(tmp_path / "report.json")])
    return list(seen.values())


@pytest.mark.parametrize("line", LINES)
def test_kernel_equals_the_dense_kernel_on_captured_eliminations(line,
                                                                 tmp_path):
    sources = captured(line, tmp_path)
    assert sources
    for ring, key in sources:
        assert_kernels_agree(ring, key)


@pytest.mark.parametrize("rows", GCD_AND_OFFENDER_CASES)
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_kernel_equals_the_dense_kernel_on_gcd_and_offender_cases(ring, rows):
    entries = frozenset((i, j, ring.from_int(v))
                        for i, row in enumerate(rows)
                        for j, v in enumerate(row) if ring.from_int(v))
    assert_kernels_agree(ring, ((len(rows), len(rows[0])), entries))


def items(vec):
    return list(vec.items()), [type(x) for x in vec.values()]


@st.composite
def logged_cases(draw):
    """A matrix over Z, Q or GF(3) whose row and column labels are not in
    position order, and a vector on some of its rows and one on some of its
    columns, keys in a drawn order."""
    ring = draw(st.sampled_from((ZZ, QQ, GF(3))))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    rows = draw(st.permutations([f"r{i}" for i in range(m)]))
    cols = draw(st.permutations([f"c{j}" for j in range(n)]))
    entries = {}
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                entries[(rows[i], cols[j])] = ring.from_int(
                    draw(st.integers(-9, 9)))
    vecs = [{k: ring.from_int(draw(st.integers(-4, 4)))
             for k in draw(st.lists(st.sampled_from(labels), unique=True))}
            for labels in (rows, [*cols, "outside"])]
    return ring, Matrix(ring, rows, cols, entries), vecs


@settings(max_examples=200, deadline=None)
@given(logged_cases())
def test_replayed_log_equals_the_transforms_it_builds(case):
    ring, M, vecs = case
    s = smith_normal_form(M)
    t = transforms(s)
    for vec, columns, X, Xinv in zip(vecs, (False, True), (t.U, t.V),
                                     (t.Uinv, t.Vinv)):
        assert items(matrices._log_apply(s, vec, columns=columns)) == \
            items(X.apply(vec))
        assert items(matrices._log_apply(s, vec, True, columns)) == \
            items(Xinv.apply(vec))
        for r in X.row_labels:
            assert items(matrices._log_apply(
                s, {r: ring.one()}, True, columns)) == items(Xinv.column(r))
        assert X @ Xinv == Matrix.identity(ring, X.row_labels)


def previous_solve(M, b):
    """`solve` as it read U and V built as `Matrix`es."""
    ring = M.ring
    s = transforms(smith_normal_form(M))
    c = s.U.apply(b)
    z = {}
    for i, d in enumerate(s.diagonals):
        q, r = ring.divmod(c.pop(M.row_labels[i], ring.zero()), d)
        if not ring.is_zero(r):
            return None
        z[M.col_labels[i]] = q
    if not chain_reference.vec_is_zero(ring, c):
        return None
    return matrices.vec_clean(ring, s.V.apply(z))


@st.composite
def solve_cases(draw):
    """A matrix over Z, Q, GF(2) or GF(5) with permuted row and column
    labels, its entries scaled by 1, 2 or 3 so that over Z an invariant
    factor is often no unit, and a right-hand side b of one kind: in the
    image (M x for a drawn x), any vector on its rows, or U^-1 e_i for an
    invariant factor d_i that is no unit (U b = e_i, and d_i does not
    divide 1).  b's keys come in a drawn order, and may include a key
    outside M's rows."""
    ring = draw(st.sampled_from((ZZ, QQ, GF(2), GF(5))))
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    rows = draw(st.permutations([f"r{i}" for i in range(m)]))
    cols = draw(st.permutations([f"c{j}" for j in range(n)]))
    scale = draw(st.sampled_from((1, 2, 3)))
    entries = {}
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                entries[(rows[i], cols[j])] = ring.from_int(
                    scale * draw(st.integers(-4, 4)))
    M = Matrix(ring, rows, cols, entries)
    s = transforms(smith_normal_form(M))
    small = st.integers(-3, 3).map(ring.from_int)
    factors = [i for i, d in enumerate(s.diagonals) if not ring.is_unit(d)]
    kind = draw(st.sampled_from(
        ("image", "any", "indivisible") if factors else ("image", "any")))
    if kind == "image":
        b = M.apply({c: draw(small) for c in cols})
    elif kind == "any":
        b = matrices.vec_clean(ring, {r: draw(small) for r in rows})
    else:
        b = s.Uinv.column(rows[draw(st.sampled_from(factors))])
    b = {k: b[k] for k in draw(st.permutations(list(b)))}
    if draw(st.booleans()):
        b["outside"] = ring.one()
    return kind, M, b


@settings(max_examples=300, deadline=None)
@given(solve_cases())
def test_solve_equals_the_solve_through_built_transforms(case):
    kind, M, b = case
    x = solve(M, b)
    expected = previous_solve(M, b)
    assert (x is None) == (expected is None)
    if x is not None:
        assert items(x) == items(expected)
        # a key outside M's rows is dropped, as `Matrix.apply` drops it
        assert matrices.vec_eq(M.ring, M.apply(x), {
            r: y for r, y in b.items() if r in M.row_index})
    if kind == "image":
        assert x is not None
    elif kind == "indivisible":
        assert x is None


def presentations(ring):
    """A cokernel presentation through a memo (H_1 of RP^2) and one without
    (the dual top local differential at a vertex, as `uct_report` builds
    it), each with at least one generator."""
    X = rp2_six()
    yield simplicial_chain_complex(X, ring).homology(1)
    d_n = LocalContext(X, ring).complex((0,)).matrix(X.dim)
    yield CokerPresentation(ring, d_n.transpose())


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
def test_project_drops_a_label_outside_the_basis(ring):
    # as `Matrix.apply` drops it; refusing it instead must be a decision
    one = ring.one()
    for pres in presentations(ring):
        assert len(pres) > 0
        assert pres.project({"outside": one}) == [ring.zero()] * len(pres)
        for j in range(len(pres)):
            g = pres.lift(j)
            assert pres.project({**g, "outside": one}) == pres.project(g)
        U = transforms(smith_normal_form(pres.snf.matrix)).U
        assert U.apply({"outside": one}) == {}


def previous_kernel_coordinates(snf, vec):
    """`kernel_coordinates` as it read the whole of V^-1."""
    index, rank = snf.matrix.col_index, snf.rank
    w = snf.Vinv.apply(vec)
    if any(index[c] < rank for c in w):
        return None
    return {index[c] - rank: x for c, x in w.items()}


def assert_kernel_halves_agree(M, vecs):
    # each half on a fresh SNF of its own
    ring, cols = M.ring, M.col_labels
    public = transforms(smith_normal_form(M))
    rank = public.rank
    s = smith_normal_form(M)
    assert [items(v) for v in kernel_basis(M, s)] == \
        [items(public.V.column(c)) for c in cols[rank:]]
    W = smith_normal_form(M).Vinv_kernel
    assert (W.row_labels, W.col_labels) == (tuple(range(len(cols) - rank)), cols)
    index = M.col_index
    assert items(W.entries) == items(
        {(index[r] - rank, c): x for (r, c), x in public.Vinv.entries.items()
         if index[r] >= rank})
    # membership and coordinates, on vectors in the kernel and not
    basis = kernel_basis(M, s)
    for vec in vecs:
        expected = previous_kernel_coordinates(public, vec)
        got = kernel_coordinates(s, vec)
        assert (got is None) == (expected is None), vec
        if got is not None:
            assert items(got) == items(expected)
            combination = {}
            for j, x in got.items():
                for r, v in basis[j].items():
                    combination[r] = ring.add(combination.get(r, ring.zero()),
                                              ring.mul(x, v))
            # a key outside the columns is dropped, as `Matrix.apply` drops it
            assert matrices.vec_eq(ring, combination, {
                c: x for c, x in vec.items() if c in index})


@st.composite
def kernel_cases(draw):
    """A matrix over Z, Q or GF(3) whose row and column labels are not in
    position order, and vectors on its columns: drawn ones, combinations of
    its kernel basis, and those plus a column of V before the rank, some
    with a key outside its columns."""
    ring = draw(st.sampled_from((ZZ, QQ, GF(3))))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.permutations([f"r{i}" for i in range(m)]))
    cols = draw(st.permutations([f"c{j}" for j in range(n)]))
    entries = {}
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                entries[(rows[i], cols[j])] = ring.from_int(
                    draw(st.integers(-9, 9)))
    M = Matrix(ring, rows, cols, entries)
    s = transforms(smith_normal_form(M))
    small = st.integers(-3, 3).map(ring.from_int)
    vecs = [{c: draw(small) for c in draw(st.lists(st.sampled_from(
        [*cols, "outside"]), unique=True))} for _ in range(2)]
    for extra in range(s.rank + 1):
        vec = {}
        for c in cols[s.rank:]:
            vec = matrices.vec_add(ring, vec, chain_reference.vec_scale(
                ring, draw(small), s.V.column(c)))
        if extra:
            vec = matrices.vec_add(ring, vec, s.V.column(cols[extra - 1]))
        if draw(st.booleans()):
            vec["outside"] = ring.one()
        vecs.append(vec)
    return M, vecs


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_kernel_halves_equal_the_public_transforms_past_the_rank(case):
    assert_kernel_halves_agree(*case)


@pytest.mark.parametrize("rows", GCD_AND_OFFENDER_CASES)
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_kernel_halves_on_gcd_and_offender_cases(ring, rows):
    # unit vectors, the sum of the kernel basis, and that sum plus each
    # column of V before the rank
    M = integer_matrix(ring, rows, len(rows[0]))
    s = transforms(smith_normal_form(M))
    vecs = [{c: ring.one()} for c in M.col_labels]
    kernel = {}
    for c in M.col_labels[s.rank:]:
        kernel = matrices.vec_add(ring, kernel, s.V.column(c))
    vecs += [kernel] + [matrices.vec_add(ring, kernel, s.V.column(c))
                        for c in M.col_labels[:s.rank]]
    assert_kernel_halves_agree(M, vecs)
