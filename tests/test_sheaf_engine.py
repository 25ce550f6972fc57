"""Sheaf/cosheaf chain complexes, sections, reorientation, and the DSL."""

import gc
import sys
import weakref

import pytest

from lochom.complexes import Subcomplex
from lochom.fixtures import FIXTURES, circle3, sphere2, triangle
from lochom.io import parse_sheaf, serialize_sheaf
from lochom.localhomology import (LocalCohomologyCosheaf, LocalContext,
                                  LocalHomologySheaf, link_crosscheck)
from lochom import matrices
from lochom.matrices import Matrix
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import (ConstantCosheaf, ConstantSheaf, Cosheaf,
                            DictSheaf, Sheaf, cosheaf_chain_complex,
                            region_rel, region_sub, sections,
                            sheaf_cochain_complex, simplicial_chain_complex,
                            simplicial_cochain_complex)
from reorientation import reorientation_iso


def test_constant_sheaf_cohomology_matches_simplicial():
    for fn in FIXTURES.values():
        X = fn()
        sc = sheaf_cochain_complex(ConstantSheaf(ZZ, X))
        pc = simplicial_cochain_complex(X, ZZ)
        for k in range(X.dim + 1):
            assert sc.homology(k).rank_summary == pc.homology(k).rank_summary


def test_constant_cosheaf_homology_matches_simplicial():
    for fn in FIXTURES.values():
        X = fn()
        cc = cosheaf_chain_complex(ConstantCosheaf(ZZ, X))
        pc = simplicial_chain_complex(X, ZZ)
        for k in range(X.dim + 1):
            assert cc.homology(k).rank_summary == pc.homology(k).rank_summary


def test_relative_plus_sub_ranks_add_up():
    # long exact sequence sanity on the sphere with an edge pair: Euler
    # characteristics of sub + rel = total
    X = sphere2()
    L = Subcomplex(X, (2, 3))

    def euler(region):
        cx = simplicial_chain_complex(X, ZZ, region)
        return sum((-1) ** k * len(cx.basis(k)) for k in range(X.dim + 1))

    total = simplicial_chain_complex(X, ZZ)
    chi = sum((-1) ** k * len(total.basis(k)) for k in range(X.dim + 1))
    assert euler(region_sub(L)) + euler(region_rel(L)) == chi


def test_sections_of_orientation_sheaf():
    # circle: one global section; sphere: one; projective plane over Z: none
    from lochom.fixtures import rp2_six
    for fn, n, expected in ((circle3, 1, 1), (sphere2, 2, 1), (rp2_six, 2, 0)):
        X = fn()
        F = LocalHomologySheaf(LocalContext(X, ZZ), n)
        h0 = sections(F)
        assert h0.free_rank == expected and not h0.torsion


def test_sections_factor_the_degree_zero_coboundary_once(monkeypatch):
    # the sections are the degree-0 presentation: the SNF that gives its
    # cycles is the only factorization of delta^0
    F = LocalHomologySheaf(LocalContext(sphere2(), ZZ), 2)
    d0 = sheaf_cochain_complex(F).differential(0)
    factor, factored = matrices.smith_normal_form, []

    def counted(M, *args):
        if (M.row_labels, M.col_labels) == (d0.row_labels, d0.col_labels):
            factored.append(M.shape)
        return factor(M, *args)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("lochom")
                and getattr(mod, "smith_normal_form", None) is factor):
            monkeypatch.setattr(mod, "smith_normal_form", counted)
    assert sections(F).free_rank == 1
    assert factored == [d0.shape]


def test_sections_determined_at_vertices():
    X = circle3()
    F = LocalHomologySheaf(LocalContext(X, ZZ), 1)
    for sec in sections(F).cycles:
        assert all(isinstance(lab, tuple) and len(lab[0]) == 1
                   for lab in sec)


def test_reorientation_conjugates_differentials():
    X = sphere2()
    Xt = X.with_order((0, 2, 1, 3))
    c1 = simplicial_chain_complex(X, ZZ)
    c2 = simplicial_chain_complex(Xt, ZZ)
    iso = reorientation_iso(c1, c2, X, Xt)
    for k in range(1, X.dim + 1):
        lhs = iso[k - 1] @ c1.differential(k)
        rhs = c2.differential(k) @ iso[k]
        assert (lhs - rhs).is_zero()


def test_sheaf_dsl_round_trip():
    X = triangle()
    F = ConstantSheaf(ZZ, X, rank=2)
    text = serialize_sheaf(F)
    G = parse_sheaf(text, X, ZZ)
    for s in X.all_simplices():
        assert len(G.stalk(s)) == 2
    sc1 = sheaf_cochain_complex(F)
    sc2 = sheaf_cochain_complex(G)
    for k in range(X.dim + 1):
        assert sc1.homology(k).rank_summary == sc2.homology(k).rank_summary


def test_sheaf_dsl_rejects_missing_stalk():
    X = triangle()
    with pytest.raises(ValueError):
        parse_sheaf("stalk: 0 rank 1", X, ZZ)


EDGE_MAP = "map: 0 < 0 1 matrix [[1]]"


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(EDGE_MAP,
                               "map: 0 < 0 1 matrix [[1, 0], [0, 1]]"),
     r"map \(0,\) < \(0, 1\): matrix must be 1x1"),
    (lambda text: text.replace(EDGE_MAP + "\n", ""),
     r"no map declared for \(0,\) < \(0, 1\)"),
    (lambda text: text + "map: 0 < 0 1 2 matrix [[1]]\n",
     r"map \(0,\) < \(0, 1, 2\) is not along a codimension-one face"),
    (lambda text: text.replace(EDGE_MAP, "map: 0 < 0 1 matrix [[-1]]"),
     r"sheaf not functorial on \(0,\) < \(0, 2\) < \(0, 1, 2\)"),
], ids=["oversized", "missing-map", "codimension-2", "not-functorial"])
def test_sheaf_dsl_rejects_malformed_sheaves(edit, message):
    X = triangle()
    text = serialize_sheaf(ConstantSheaf(ZZ, X))
    assert EDGE_MAP in text
    with pytest.raises(ValueError, match=message):
        parse_sheaf(edit(text), X, ZZ)


def test_local_sheaf_restriction_functorial():
    # one-step restrictions compose to the two-step restriction
    X = sphere2()
    F = LocalHomologySheaf(LocalContext(X, ZZ), 2)
    s, mid, t = (0,), (0, 1), (0, 1, 2)
    two_step = F.restriction(s, t)
    composed = F.restriction_step(mid, t) @ F.restriction_step(s, mid)
    assert (two_step - composed).is_zero()


def test_local_cosheaf_corestriction_functorial():
    X = sphere2()
    G = LocalCohomologyCosheaf(LocalContext(X, ZZ), 2)
    s, mid, t = (0,), (0, 1), (0, 1, 2)
    two_step = G.corestriction(t, s)
    composed = G.corestriction_step(mid, s) @ G.corestriction_step(t, mid)
    assert (two_step - composed).is_zero()


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["z", "f2"])
@pytest.mark.parametrize("name", ["c3", "delta2", "t4", "rp6", "hex"])
def test_local_homology_sheaf_and_cosheaf_are_functorial(name, ring):
    X = FIXTURES[name]()
    ctx = LocalContext(X, ring)
    assert LocalHomologySheaf(ctx, X.dim).check_functorial()
    assert LocalCohomologyCosheaf(ctx, X.dim).check_functorial()


def test_a_context_is_freed_without_the_cycle_collector():
    # the sheaf views point at their context and never back, so dropping the
    # last reference frees the context, and the presentations and the
    # factorizations it holds, at once rather than at the next cyclic
    # collection; a presentation's SNF points at no stored one
    ctx = LocalContext(sphere2(), ZZ)
    h0 = sections(LocalHomologySheaf(ctx, 2))
    assert h0.free_rank == 1 and not h0.torsion
    assert cosheaf_chain_complex(LocalCohomologyCosheaf(ctx, 2)).basis(2)
    assert link_crosscheck(ctx, (0,))
    refs = [weakref.ref(ctx)] + [weakref.ref(s) for s in ctx.memo.values()
                                 if isinstance(s, matrices.SNF)]
    assert len(refs) > 1
    gc.disable()
    try:
        del ctx
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_check_functorial_names_the_triple_of_a_sign_flipped_sheaf():
    X = triangle()
    one = Matrix.identity(ZZ, (0,))
    steps = {(f, t): one for f in X.all_simplices() for t in X.cofaces(f)}
    steps[((0,), (0, 1))] = one.scale(ZZ.from_int(-1))
    F = DictSheaf(ZZ, X, {s: (0,) for s in X.all_simplices()}, steps)
    with pytest.raises(ValueError, match=r"^sheaf not functorial on "
                       r"\(0,\) < \(0, 2\) < \(0, 1, 2\)$"):
        F.check_functorial()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_sheaf_and_cosheaf_defines_its_stalk_and_step():
    # the base classes declare neither: a concrete class that forgot one
    # would fail only when it is first read
    package = [cls for base in (Sheaf, Cosheaf) for cls in _subclasses(base)
               if cls.__module__.startswith("lochom.")]
    assert {cls.__name__ for cls in package} == {
        "ConstantSheaf", "ConstantCosheaf", "DictSheaf",
        "LocalHomologySheaf", "LocalCohomologyCosheaf"}
    for cls in package:
        step = ("restriction_step" if issubclass(cls, Sheaf)
                else "corestriction_step")
        for name in ("stalk", step):
            assert callable(getattr(cls, name, None)), (cls.__name__, name)
    for base in (Sheaf, Cosheaf):
        assert not hasattr(base, "stalk")
    assert not hasattr(Sheaf, "restriction_step")
    assert not hasattr(Cosheaf, "corestriction_step")


class SignedCosheaf(Cosheaf):
    """Rank-one stalks whose steps are all 1 except the corestriction
    (0, 1) -> (0,), which is -1: the two ways down from (0, 1, 2) to (0,)
    disagree."""

    def stalk(self, simplex):
        return (0,)

    def corestriction_step(self, cosimplex, simplex):
        sign = -1 if (cosimplex, simplex) == ((0, 1), (0,)) else 1
        return Matrix(self.ring, (0,), (0,),
                      {(0, 0): self.ring.from_int(sign)})


def test_check_functorial_names_the_triple_of_a_non_composing_cosheaf():
    G = SignedCosheaf(ZZ, triangle())
    assert G.corestriction((0, 1, 2), (0,)) != (
        G.corestriction((0, 2), (0,)) @ G.corestriction((0, 1, 2), (0, 2)))
    with pytest.raises(ValueError, match=r"^cosheaf not functorial on "
                       r"\(0,\) < \(0, 2\) < \(0, 1, 2\)$"):
        G.check_functorial()
