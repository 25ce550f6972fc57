"""Section duals of degree-zero cosheaf homology and semistability of
truncated restriction systems."""

import pytest

from lochom import sectionsduality
from lochom.complexes import Subcomplex
from lochom.fixtures import bowtie, circle3, hexagon, rp2_six, sphere2
from lochom.localhomology import LocalContext
from lochom.matrices import smith_normal_form
from lochom.rings import GF, QQ, ZZ
from lochom.sectionsduality import (RestrictionSystem,
                                    build_restriction_system,
                                    compactly_determined_dual,
                                    constant_system, doubling_system,
                                    lf_h0_check, semistability_check)


def compactly_determined(X, L, n, ring, filtration):
    """`compactly_determined_dual` from the three reports it reads, built on
    one context as `lochom sections --filtration` builds them."""
    ctx = LocalContext(X, ring)
    system, gammas = build_restriction_system(ctx, L, n, filtration)
    semi = semistability_check(system) if len(system) > 1 else None
    return compactly_determined_dual(lf_h0_check(ctx, L, n), gammas, semi)


def test_lf_h0_circle_and_sphere():
    for fn, n in ((circle3, 1), (sphere2, 2)):
        rep = lf_h0_check(LocalContext(fn(), ZZ), None, n)
        assert rep["verdict"]
        assert rep["h0"] == (1, []) and rep["dual_rank"] == 1


def test_lf_h0_star_region_in_sphere():
    X = sphere2()
    L = Subcomplex(X, (1, 2, 3))
    rep = lf_h0_check(LocalContext(X, ZZ), L, 2)
    assert rep["verdict"]
    assert rep["h0"] == (1, []) and rep["dual_rank"] == 1


def test_lf_h0_two_disjoint_edges():
    H = hexagon()
    L = Subcomplex(H, (0, 1, 3, 4))
    rep = lf_h0_check(LocalContext(H, ZZ), L, 1)
    assert rep["verdict"]
    assert rep["h0"] == (2, []) and rep["dual_rank"] == 2


def test_lf_h0_refuses_on_cm_failure():
    rep = lf_h0_check(LocalContext(bowtie(), ZZ), None, 2)
    assert rep["refused"] and not rep["verdict"]


def test_lf_h0_projective_plane_torsion_obstruction():
    # integrally the comparison genuinely fails: degree-zero cosheaf homology
    # is 2-torsion while the orientation sheaf has no sections; over fields
    # the obstruction vanishes
    rep = lf_h0_check(LocalContext(rp2_six(), ZZ), None, 2)
    assert rep["h0"] == (0, [2]) and rep["dual_rank"] == 0
    assert not rep["verdict"]
    assert lf_h0_check(LocalContext(rp2_six(), GF(2)), None, 2)["verdict"]
    assert lf_h0_check(LocalContext(rp2_six(), QQ), None, 2)["verdict"]


def test_constant_system_semistable_with_splitting():
    rep = semistability_check(constant_system(ZZ, 2, 4))
    assert rep["semistable"]
    assert rep["splitting_verified"]


def test_doubling_system_never_stabilizes_over_z():
    rep = semistability_check(doubling_system(ZZ, 6))
    assert not rep["semistable"]
    assert all(not e["stabilized"] for e in rep["per_stage"])


def test_semistability_factors_each_last_map_once(monkeypatch):
    # over Z no stage stabilizes, so every stage tests every candidate
    # image against its last map, with one factorization of that map
    factored = []

    def counted(M):
        factored.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(sectionsduality, "smith_normal_form", counted)
    rep = semistability_check(doubling_system(ZZ, 5))
    assert not rep["semistable"]
    assert [m.shape for m in factored] == [(1, 1)] * 4
    assert [m.entries[(0, 0)] for m in factored] == [16, 8, 4, 2]


def test_doubling_system_stabilizes_over_q():
    rep = semistability_check(doubling_system(QQ, 5))
    assert rep["semistable"] and rep["splitting_verified"]


def test_restriction_system_composition_invariant():
    system, _ = build_restriction_system(
        LocalContext(circle3(), ZZ), None, 1, [[0], [0, 1], [0, 1, 2]])
    # r_i^k = r_i^j r_j^k
    m02 = system.map(0, 2)
    assert (m02 - system.map(0, 1) @ system.map(1, 2)).is_zero()


def test_restriction_system_label_validation():
    from lochom.matrices import Matrix
    with pytest.raises(ValueError):
        RestrictionSystem(ZZ, [(0,), (0,)], [])
    bad = Matrix(ZZ, (1,), (0,), {})
    with pytest.raises(ValueError):
        RestrictionSystem(ZZ, [(0,), (0,)], [bad])


def test_arc_filtration_of_circle():
    rep = compactly_determined(circle3(), None, 1, ZZ,
                               [[0], [0, 1], [0, 1, 2]])
    assert rep["verdict"] and rep["semistable"]
    assert rep["dual_ranks"] == [1, 1, 1]
    assert rep["colimit_rank"] == 1 and rep["h0"] == (1, [])


def test_trivial_one_step_filtration():
    rep = compactly_determined(circle3(), None, 1, ZZ, [[0, 1, 2]])
    assert rep["verdict"]
    assert rep["stages"] == 1 and rep["colimit_rank"] == 1


def test_two_component_region_rank_two_dual():
    H = hexagon()
    L = Subcomplex(H, (0, 1, 3, 4))
    rep = compactly_determined(H, L, 1, ZZ, [[0, 1], [0, 1, 3, 4]])
    assert rep["verdict"]
    assert rep["colimit_rank"] == 2


def test_filtration_validation():
    ctx = LocalContext(circle3(), ZZ)
    with pytest.raises(ValueError):
        build_restriction_system(ctx, None, 1, [[0, 1], [0]])
    with pytest.raises(ValueError):
        build_restriction_system(ctx, None, 1, [[0], [0, 1]])


def test_cdd_refuses_on_cm_failure():
    rep = compactly_determined(bowtie(), None, 2, ZZ, [[0, 1, 2, 3, 4]])
    assert rep["refused"] and not rep["verdict"]
