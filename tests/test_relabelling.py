"""Verdicts do not depend on the names or the order of the vertices.

The local sheaf and cosheaf read their stalks by basis position, and a stalk
is shared by every simplex whose local differential is equal by position, so
a position read at the wrong simplex would make the result depend on how the
vertices are named and ordered.  Each case relabels the vertices of a
complex by a seeded injection, shuffles the vertex order, and checks that
`verify_duality` gives the same verdict, the same refusal and the same
source and target rank summaries in every degree, with the hypothesis
witnesses mapped back to the old labels, for each of the eight duality
items (every item reads the cokernel presentations' `project` and `lift`),
with L the whole complex and with the fixture subcomplexes `rp6_345` and
`t4_edge23` relabelled with their complex; that `cm_check` gives the same
report with its witnesses mapped back; and that `local --dim n` gives the
same summaries, link cross-check and UCT fields at each simplex mapped back.
A new order permutes the rows and columns of every matrix the elimination
kernel sees, so these checks do not rest on the kernel's own output.
"""

import argparse
import os
import random

import pytest

from lochom.cli import cmd_local
from lochom.complexes import (SimplicialComplex, Subcomplex, parse_complex,
                              parse_subcomplex)
from lochom.localhomology import cm_check
from lochom.mv import DUALITY_ITEMS, verify_duality
from lochom.rings import GF, ZZ
from test_chain_complexes import COMPLEXES

NAMES = ["bowtie", "c3", "delta2", "hex", "rp6", "t4", "sd_rp6"]
FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def relabelled(X, seed):
    """X with its vertices renamed and put in another order, and the map
    back."""
    rng = random.Random(seed)
    new = rng.sample(range(100, 100 + 3 * len(X.order)), len(X.order))
    rename = dict(zip(X.order, new))
    order = list(new)
    while order == new:
        rng.shuffle(order)
    Y = SimplicialComplex([[rename[v] for v in s]
                           for s in X.maximal_simplices()], order=order)
    return Y, {w: v for v, w in rename.items()}


def summary(report, back):
    """What must not move: verdict, refusal, the rank summaries of each
    degree and the hypothesis witnesses, as sets of old vertex labels."""
    witnesses = sorted(repr((sorted(back[v] for v in s), k, ranks))
                       for s, k, ranks in report["hypothesis"]["witnesses"])
    return (report["verdict"], report["refused"], witnesses,
            {l: (d["source"], d["target"])
             for l, d in report["degrees"].items()})


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
@pytest.mark.parametrize("item", sorted(DUALITY_ITEMS))
@pytest.mark.parametrize("name", NAMES)
def test_duality_is_invariant_under_relabelling(name, item, ring):
    X = COMPLEXES[name]()
    Y, back = relabelled(X, f"{name}:{item}:{ring.name}")
    assert [back[v] for v in Y.order] != list(X.order)
    before = summary(verify_duality(X, None, item, ring),
                     {v: v for v in X.order})
    assert summary(verify_duality(Y, None, item, ring), back) == before


def _read(name):
    with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
@pytest.mark.parametrize("item", sorted(DUALITY_ITEMS))
@pytest.mark.parametrize("name, sub", [("rp6", "rp6_345"),
                                       ("t4", "t4_edge23")])
def test_duality_with_a_subcomplex_is_invariant_under_relabelling(
        name, sub, item, ring):
    X = parse_complex(_read(f"{name}.cplx"))
    vertices = parse_subcomplex(_read(f"{sub}.sub"), X).vertex_set
    Y, back = relabelled(X, f"{name}:{sub}:{item}:{ring.name}")
    rename = {v: w for w, v in back.items()}
    before = summary(verify_duality(X, Subcomplex(X, vertices), item, ring),
                     {v: v for v in X.order})
    L = Subcomplex(Y, [rename[v] for v in vertices])
    assert summary(verify_duality(Y, L, item, ring), back) == before


def back_simplex(s, back):
    return tuple(sorted(back[v] for v in s))


def cm_summary(report, back):
    """A `cm_check` report with each witness's simplex as old labels."""
    out = dict(report)
    out["witnesses"] = sorted(repr((back_simplex(s, back), k, ranks))
                              for s, k, ranks in report["witnesses"])
    return out


def local_summary(X, ring, n, back):
    """`local --dim n`'s entry at each simplex, keyed by its old labels."""
    report = {}
    ok = cmd_local(argparse.Namespace(dim=n), ring, X, None, report)
    out = {}
    for s, entry in report["simplices"].items():
        entry = dict(entry, uct=dict(entry["uct"]))
        entry["uct"]["simplex"] = back_simplex(entry["uct"]["simplex"], back)
        out[back_simplex(s, back)] = entry
    return ok, out


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
@pytest.mark.parametrize("name", NAMES)
def test_cm_check_is_invariant_under_relabelling(name, ring):
    X = COMPLEXES[name]()
    Y, back = relabelled(X, f"{name}:cm:{ring.name}")
    same = {v: v for v in X.order}
    for n in (X.dim, X.dim - 1):
        before = cm_summary(cm_check(X, None, n, ring), same)
        assert cm_summary(cm_check(Y, None, n, ring), back) == before, n


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
@pytest.mark.parametrize("name", NAMES)
def test_local_dim_n_is_invariant_under_relabelling(name, ring):
    X = COMPLEXES[name]()
    Y, back = relabelled(X, f"{name}:local:{ring.name}")
    same = {v: v for v in X.order}
    for n in (X.dim, X.dim - 1):
        ok, before = local_summary(X, ring, n, same)
        assert len(before) == len(list(X.all_simplices()))
        assert local_summary(Y, ring, n, back) == (ok, before), n
