"""Sheaf/cosheaf chain complexes, sections, reorientation, and the
functoriality of the local sheaf and cosheaf (`sheaf_reference`)."""

import gc
import sys
import weakref

import pytest

from lochom.complexes import Subcomplex
from lochom.fixtures import circle3
from lochom.localhomology import (LocalCohomologyCosheaf, LocalContext,
                                  LocalHomologySheaf, link_crosscheck)
from lochom import matrices
from lochom.rings import GF, ZZ
from lochom.sheaves import (cosheaf_chain_complex, region_rel, region_sub,
                            sections, sheaf_cochain_complex,
                            simplicial_chain_complex,
                            simplicial_cochain_complex)
from fixture_complexes import FIXTURES, sphere2, triangle
from reorientation import reorientation_iso
from sheaf_reference import (ConstantCosheaf, ConstantSheaf, along,
                             check_functorial, step_matrix)


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


def test_local_sheaf_restriction_functorial():
    # one-step restrictions compose to the two-step restriction
    X = sphere2()
    F = LocalHomologySheaf(LocalContext(X, ZZ), 2)
    s, mid, t = (0,), (0, 1), (0, 1, 2)
    two_step = along(F, s, t)
    composed = step_matrix(F, mid, t) @ step_matrix(F, s, mid)
    assert (two_step - composed).is_zero()


def test_local_cosheaf_corestriction_functorial():
    X = sphere2()
    G = LocalCohomologyCosheaf(LocalContext(X, ZZ), 2)
    s, mid, t = (0,), (0, 1), (0, 1, 2)
    two_step = along(G, s, t)
    composed = step_matrix(G, s, mid) @ step_matrix(G, mid, t)
    assert (two_step - composed).is_zero()


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["z", "f2"])
@pytest.mark.parametrize("name", ["c3", "delta2", "t4", "rp6", "hex"])
def test_local_homology_sheaf_and_cosheaf_are_functorial(name, ring):
    X = FIXTURES[name]()
    ctx = LocalContext(X, ring)
    assert check_functorial(LocalHomologySheaf(ctx, X.dim))
    assert check_functorial(LocalCohomologyCosheaf(ctx, X.dim))


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


class SignFlippedSheaf(ConstantSheaf):
    """Rank-one stalks whose steps are all 1 except the one between (0,) and
    (0, 1), which is -1: the two ways between (0,) and (0, 1, 2) disagree."""

    def step(self, lo, hi):
        sign = -1 if (lo, hi) == ((0,), (0, 1)) else 1
        return [{0: self.ring.from_int(sign)}]


class SignFlippedCosheaf(SignFlippedSheaf):
    """The same steps read downwards: the corestriction (0, 1) -> (0,) is
    -1."""

    covariant = False


def test_check_functorial_names_the_triple_of_a_sign_flipped_sheaf():
    F = SignFlippedSheaf(ZZ, triangle())
    with pytest.raises(ValueError, match=r"^sheaf not functorial on "
                       r"\(0,\) < \(0, 2\) < \(0, 1, 2\)$"):
        check_functorial(F)


def test_check_functorial_names_the_triple_of_a_non_composing_cosheaf():
    G = SignFlippedCosheaf(ZZ, triangle())
    assert along(G, (0,), (0, 1, 2)) != (
        along(G, (0,), (0, 2)) @ along(G, (0, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match=r"^cosheaf not functorial on "
                       r"\(0,\) < \(0, 2\) < \(0, 1, 2\)$"):
        check_functorial(G)
