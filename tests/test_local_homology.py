"""Local (co)homology stalks, link cross-checks, CM detection, duality of
stalks."""

import os

import pytest

from lochom import homology
from lochom.cli import main
from lochom.complexes import Subcomplex
from lochom.fixtures import (FIXTURES, bowtie, circle3, hexagon, rp2_six,
                             sphere2, triangle)
from lochom.homology import ChainComplex, HomologyPresentation
from lochom.localhomology import (cm_check, link_crosscheck, local_cm_check,
                                  local_cohomology, local_complex,
                                  local_homology, uct_check, uct_report)
from lochom.rings import GF, QQ, ZZ

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def test_circle_stalks():
    # every stalk of the circle is a line in top degree
    X = circle3()
    for s in X.all_simplices():
        assert local_homology(X, ZZ, s, 1).rank_summary == (1, [])
        assert local_homology(X, ZZ, s, 0).rank_summary == (0, [])
        assert local_cohomology(X, ZZ, s, 1).rank_summary == (1, [])


def test_disk_boundary_vs_interior_stalks():
    # full triangle: interior-free complex; boundary vertices have trivial
    # top local homology, the top cell has a line
    X = triangle()
    assert local_homology(X, ZZ, (0,), 2).rank_summary == (0, [])
    assert local_homology(X, ZZ, (0, 1), 2).rank_summary == (0, [])
    assert local_homology(X, ZZ, (0, 1, 2), 2).rank_summary == (1, [])


def test_sphere_stalks_all_lines():
    X = sphere2()
    for s in X.all_simplices():
        assert local_homology(X, ZZ, s, 2).rank_summary == (1, [])
        for k in (0, 1):
            assert local_homology(X, ZZ, s, k).is_trivial()


def test_bowtie_pinch_point():
    # at the glued vertex the complement retracts to two disjoint arcs:
    # homology concentrates one degree below the top, breaking concentration
    X = bowtie()
    assert local_homology(X, ZZ, (0,), 2).rank_summary == (0, [])
    assert local_homology(X, ZZ, (0,), 1).rank_summary == (1, [])


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
def test_local_factor_summaries_match_presentations(ring):
    for fn in FIXTURES.values():
        X = fn()
        for s in X.all_simplices():
            cx = local_complex(X, ring, s)
            for k in range(-1, X.dim + 2):
                assert repr(cx.homology_summary(k)) == repr(
                    local_homology(X, ring, s, k).rank_summary), (s, k)
                assert repr(cx.cohomology_summary(k)) == repr(
                    local_cohomology(X, ring, s, k).rank_summary), (s, k)


def _is_local_differential(M):
    # local chain labels are (simplex, carrier); link chains are simplices
    return all(isinstance(c[0], tuple) for c in M.col_labels)


@pytest.mark.parametrize("name, n", [("c3", 1), ("t4", 2), ("rp6", 2)])
def test_local_command_factors_once_and_presents_only_degree_n(
        monkeypatch, tmp_path, name, n):
    degrees, built, factored = [], [0], {}
    present, init = ChainComplex.homology, HomologyPresentation.__init__
    factors = homology.invariant_factors

    def counted_homology(self, deg):
        degrees.append(deg)
        return present(self, deg)

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counted_factors(M):
        if _is_local_differential(M):
            key = (M.row_labels, M.col_labels)
            factored[key] = factored.get(key, 0) + 1
        return factors(M)

    monkeypatch.setattr(ChainComplex, "homology", counted_homology)
    monkeypatch.setattr(HomologyPresentation, "__init__", counted_init)
    monkeypatch.setattr(homology, "invariant_factors", counted_factors)
    base = ["local", "--complex", os.path.join(FIXDIR, f"{name}.cplx"),
            "--out", str(tmp_path / "report.json")]
    for extra in ([], ["--dim", str(n)]):
        degrees.clear()
        built[0] = 0
        factored.clear()
        assert main(base + extra) == 0
        # --dim n pairs a degree-n cycle basis with the degree-n cokernel
        # presentation, so neither run builds a homology presentation
        assert built[0] == len(degrees) == 0
        assert factored and max(factored.values()) == 1


def test_link_crosscheck_all_fixtures():
    for fn in FIXTURES.values():
        X = fn()
        for s in X.all_simplices():
            assert link_crosscheck(X, ZZ, s)


def test_cm_check_verdicts():
    assert cm_check(circle3(), None, 1, ZZ)["cm"]
    assert cm_check(sphere2(), None, 2, ZZ)["cm"]
    assert cm_check(hexagon(), None, 1, ZZ)["locally_cm"]
    rep = cm_check(rp2_six(), None, 2, ZZ)
    assert rep["locally_cm"] and not rep["cm"]  # reduced H_1 = Z/2 survives
    assert cm_check(rp2_six(), None, 2, GF(2))["locally_cm"]


def test_bowtie_cm_witness():
    rep = cm_check(bowtie(), None, 2, ZZ)
    assert not rep["locally_cm"]
    simplices = [w[0] for w in rep["witnesses"]]
    assert (0,) in simplices


def test_cm_check_at_subcomplex_only():
    # away from the pinch vertex the bowtie is locally CM
    X = bowtie()
    L = Subcomplex(X, (1, 2))
    rep = cm_check(X, L, 2, ZZ)
    assert rep["locally_cm_at_L"]


def test_local_cm_check_is_the_local_half_of_cm_check():
    X = bowtie()
    for L in (None, Subcomplex(X, (1, 2)), Subcomplex(X, (0, 1))):
        for ring in (ZZ, GF(2)):
            local = local_cm_check(X, L, 2, ring)
            full = cm_check(X, L, 2, ring)
            assert local == {k: full[k] for k in
                             ("locally_cm_at_L", "locally_cm", "witnesses")}


def test_purity_flag():
    assert cm_check(sphere2(), None, 2, ZZ)["pure"]
    mixed = [[0, 1, 2], [2, 3]]
    from lochom.complexes import SimplicialComplex
    assert not cm_check(SimplicialComplex(mixed), None, 2, ZZ)["pure"]


def test_uct_all_simplices_over_z():
    for fn, n in ((circle3, 1), (sphere2, 2), (rp2_six, 2)):
        X = fn()
        for s in X.all_simplices():
            assert uct_check(X, ZZ, s, n)


def test_uct_report_fields():
    X = sphere2()
    rep = uct_report(X, ZZ, (0,), 2)
    assert rep["ok"] and rep["locally_cm_here"] and rep["pairing_unimodular"]


def test_stalk_field_dimensions_match_scalars():
    # dimensions over Q agree with free ranks over Z on torsion-free stalks
    X = sphere2()
    for s in X.all_simplices():
        assert (local_homology(X, QQ, s, 2).rank_summary
                == local_homology(X, ZZ, s, 2).rank_summary)
