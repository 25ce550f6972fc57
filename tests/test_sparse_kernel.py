"""The sparse elimination kernel against the verbatim dense one it replaced.

Each case runs one command line with `matrices._eliminate` recorded, then
eliminates every distinct matrix it saw twice more: with the sparse kernel,
given its nonzeros in ascending and in descending position order, and with
`dense_reference._eliminate`, the old dense kernel verbatim.  The diagonals
and the four sparsely stored transforms (with the zeros that cancel) must
agree in value, type and order, and the factors-only run must give the same
diagonals.  The sparse kernel keeps V and V^-1 as the dense one did and logs
its row operations in place of U and U^-1, so the U rows and U^-1 columns
compared are those built from its log.  The command
lines are those whose matrices are large: duality and `local --dim 2` on
the subdivisions over z, fp:2 and fp:3, and one run on sd2(rp6); Q, whose
dense elimination is slow at that size, runs on the small fixtures.

The log's other readers replay it on one vector (`matrices._replay`):
forwards it must give `U.apply`, inverted and backwards a column of U^-1,
and U U^-1 must be the identity.  A cokernel presentation projects through
that replay, and drops a key outside its basis as `Matrix.apply` does.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from lochom import matrices
from lochom.cli import main
from lochom.fixtures import rp2_six
from lochom.homology import CokerPresentation
from lochom.localhomology import LocalContext
from lochom.matrices import Matrix, smith_normal_form
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex
from test_snf_oracle import GCD_AND_OFFENDER_CASES, RINGS

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


def with_log_rows(ring, m, result):
    """A tracked sparse result as the dense kernel gives it: U's rows and
    U^-1's columns, the identity's rows under the log as `SNF.U` and
    `SNF.Uinv` build them, before V's columns and V^-1's rows."""
    diagonals, (log, VT, Vinv) = result
    return diagonals, [
        matrices._replay(ring, log, [{i: ring.one()} for i in range(m)],
                         inverse, True) for inverse in (False, True)] + [
        VT, Vinv]


def assert_kernels_agree(ring, key):
    (m, n), nonzeros = key
    ordered = sorted(nonzeros, key=lambda e: e[:2])
    M = Matrix(ring, range(m), range(n), {(i, j): v for i, j, v in ordered})
    expected = fingerprint(dense_reference._eliminate(M, True))
    for entries in (ordered, ordered[::-1]):
        source = (ring, ((m, n), tuple(entries)))
        assert fingerprint(with_log_rows(
            ring, m, matrices._eliminate(source, True))) == expected
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
    """A matrix over Z, Q or GF(3) whose row labels are not in position
    order, and a vector on some of its rows."""
    ring = draw(st.sampled_from((ZZ, QQ, GF(3))))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    rows = draw(st.permutations([f"r{i}" for i in range(m)]))
    entries = {}
    for i in range(m):
        for j in range(n):
            if draw(st.booleans()):
                entries[(rows[i], j)] = ring.from_int(draw(st.integers(-9, 9)))
    vec = {r: ring.from_int(draw(st.integers(-4, 4)))
           for r in draw(st.lists(st.sampled_from(rows), unique=True))}
    return ring, Matrix(ring, rows, range(n), entries), vec


@settings(max_examples=200, deadline=None)
@given(logged_cases())
def test_replayed_log_equals_the_transforms_it_builds(case):
    ring, M, vec = case
    s = smith_normal_form(M)
    rows = M.row_labels
    assert items(matrices._log_apply(s, vec)) == items(s.U.apply(vec))
    for r in rows:
        assert items(matrices._log_apply(s, {r: ring.one()}, True)) == \
            items(s.Uinv.column(r))
    assert s.U @ s.Uinv == Matrix.identity(ring, rows)


def presentations(ring):
    """A cokernel presentation through a memo (H_1 of RP^2) and one without
    (the dual top local differential at a vertex, as `uct_report` builds
    it), each with at least one generator."""
    X = rp2_six()
    yield simplicial_chain_complex(X, ring).homology(1)
    d_n = LocalContext(X, ring).complex((0,)).differential(X.dim)
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
        U = smith_normal_form(pres.snf.matrix).U
        assert U.apply({"outside": one}) == {}
