"""The context's rows of local summaries against per-simplex references.

`LocalContext` keeps one row of local summaries per `LocalComplex.type`, and
compares the link cross-check once per pair of local and link types.  The
references in `local_reference` are the bodies that read each simplex's own
complex.  Each case checks, on a complex over one ring, that:

- `ctx.summaries(s)`, both halves, equals the summaries of a fresh
  `local_complex` with its own memo, at every simplex;
- two simplices share a row exactly when their types are equal;
- `link_crosscheck`, `local_cm_check` (with L None and a seeded L, for
  n = dim, dim - 1 and 99) and `uct_report`'s concentration equal the
  references in value, in `repr` and in witness order.

The complexes are the fixtures, the random complexes of the chain tests,
a seeded vertex-order shuffle each of sd(rp6) and sd(torus) (in sorted
vertex order those have 11 star types, shuffled 31 and 36) and the cone
over rp6, whose local homology at the apex has torsion, so that its
homology and cohomology rows differ.  A failing link cross-check is
covered by a faulty link builder: a pair of types is compared afresh
whenever the link's type is new.
"""

import random

import pytest

from lochom import localhomology
from lochom.complexes import SimplicialComplex, Subcomplex
from lochom.fixtures import rp2_six
from lochom.localhomology import (LocalContext, link_crosscheck,
                                  local_cm_check, local_complex, uct_report)
from lochom.rings import GF, QQ, ZZ
from local_reference import (reference_concentration,
                             reference_link_crosscheck,
                             reference_local_cm_check)
from test_chain_complexes import COMPLEXES

SHUFFLED = ("sd_rp6", "sd_torus")


def cone_rp6():
    return SimplicialComplex([[*t, 99] for t in rp2_six().maximal_simplices()])


def _complex(name):
    """A table complex, or `name@seed`: sd(rp6) or sd(torus) with its
    vertex order shuffled by that seed."""
    base, _, seed = name.partition("@")
    X = cone_rp6() if base == "cone_rp6" else COMPLEXES[base]()
    if seed:
        order = list(X.order)
        random.Random(name).shuffle(order)
        X = X.with_order(order)
    return X


CASES = [*COMPLEXES, "cone_rp6", *(f"{name}@1" for name in SHUFFLED)]


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
@pytest.mark.parametrize("name", CASES)
def test_rows_equal_the_per_simplex_references(name, ring):
    X = _complex(name)
    simplices = list(X.all_simplices())
    ctx, ref = LocalContext(X, ring), LocalContext(X, ring)
    rows, types = {}, {}
    for s in simplices:
        fresh = local_complex(X, ring, s, {})
        for dual, summary in ((False, fresh.homology_summary),
                              (True, fresh.cohomology_summary)):
            row = ctx.summaries(s, dual)
            assert repr(row) == repr(
                {k: summary(k) for k in range(X.dim + 1)}), (s, dual)
            rows.setdefault(id(row), set()).add(ctx.complex(s).type)
            types.setdefault((dual, ctx.complex(s).type), set()).add(id(row))
        got = link_crosscheck(ctx, s)
        assert got is reference_link_crosscheck(ref, s), s
    assert all(len(t) == 1 for t in rows.values())
    assert all(len(r) == 1 for r in types.values())
    if "@" in name:
        assert len({t for _, t in types}) > 11
    rng = random.Random(name)
    L = Subcomplex(X, rng.sample(X.order, max(1, len(X.order) // 2)))
    for n in (X.dim, X.dim - 1, 99):
        for sub in (None, L):
            got = local_cm_check(ctx, sub, n)
            want = reference_local_cm_check(ref, sub, n)
            assert got == want and repr(got) == repr(want), (n, sub)
        for s in simplices:
            got = uct_report(ctx, s, n)["locally_cm_here"]
            assert got is reference_concentration(ref, s, n), (s, n)


@pytest.mark.parametrize("ring", (ZZ, GF(2)), ids=lambda r: r.name)
@pytest.mark.parametrize("name", ["rp6", "sd_rp6@1"])
def test_a_faulty_link_fails_the_crosscheck_where_the_reference_does(
        monkeypatch, name, ring):
    # the link builder drops the first entry of the link's top differential
    # at every simplex whose first vertex is even
    built = localhomology.LocalComplex.link

    def faulty(self):
        link = built(self)
        if self.simplex[0] % 2 == 0 and len(link.entries) > 1:
            i = len(link.entries) - 1
            link.entries[i] = link.entries[i][1:]
            shape = link.keys[link.low + i][0]
            link.keys[link.low + i] = (shape, frozenset(link.entries[i]))
        return link

    monkeypatch.setattr(localhomology.LocalComplex, "link", faulty)
    X = _complex(name)
    ctx, ref = LocalContext(X, ring), LocalContext(X, ring)
    verdicts = [(link_crosscheck(ctx, s), reference_link_crosscheck(ref, s))
                for s in X.all_simplices()]
    assert all(got is want for got, want in verdicts)
    assert {want for _, want in verdicts} == {True, False}
