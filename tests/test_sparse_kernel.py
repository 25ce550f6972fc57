"""The sparse elimination kernel against the verbatim dense one it replaced.

Each case runs one command line with `matrices._eliminate` recorded, then
eliminates every distinct matrix it saw twice more: with the sparse kernel,
given its nonzeros in ascending and in descending position order, and with
`dense_reference._eliminate`, the old dense kernel verbatim.  The diagonals
and the four sparsely stored transforms (with the zeros that cancel) must
agree in value, type and order, and the factors-only run must give the same
diagonals.  The command lines are those whose matrices are large: duality
and `local --dim 2` on the subdivisions over z, fp:2 and fp:3, and one run
on sd2(rp6); Q, whose dense elimination is slow at that size, runs on the
small fixtures.
"""

import os

import pytest

import dense_reference
from lochom import matrices
from lochom.cli import main
from lochom.matrices import Matrix
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


def assert_kernels_agree(ring, key):
    (m, n), nonzeros = key
    ordered = sorted(nonzeros, key=lambda e: e[:2])
    M = Matrix(ring, range(m), range(n), {(i, j): v for i, j, v in ordered})
    expected = fingerprint(dense_reference._eliminate(M, True))
    for entries in (ordered, ordered[::-1]):
        source = (ring, ((m, n), tuple(entries)))
        assert fingerprint(matrices._eliminate(source, True)) == expected
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
