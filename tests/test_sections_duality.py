"""Section duals of degree-zero cosheaf homology and semistability of
truncated restriction systems."""

import os
from collections import Counter

import pytest

from lochom import localhomology, sectionsduality
from lochom.cli import main
from lochom.complexes import Subcomplex, parse_complex
from lochom.fixtures import circle3, hexagon, rp2_six
from lochom.localhomology import LocalContext, LocalHomologySheaf
from lochom.matrices import Matrix, smith_normal_form
from lochom.rings import GF, QQ, ZZ
from lochom.sectionsduality import (RestrictionSystem,
                                    build_restriction_system,
                                    compactly_determined_dual,
                                    doubling_system, lf_h0_check,
                                    semistability_check)
from fixture_complexes import bowtie, sphere2
from test_chain_complexes import COMPLEXES

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


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
    # identity maps on a fixed free module: semistable with stable image the
    # whole module
    base = (0, 1)
    steps = [Matrix.identity(ZZ, base) for _ in range(3)]
    rep = semistability_check(RestrictionSystem(ZZ, [base] * 4, steps))
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


def test_a_restriction_system_computes_each_step_once(monkeypatch):
    # each stage's sections read every vertex < edge pair inside it (a
    # section basis reads the degree-0 coboundary alone), and the stages of
    # a filtration nest, so the pairs of the first stages are read again at
    # every later one: 672 reads of the 252 vertex < edge pairs of
    # sd(torus) over seven stages of six more vertices each.  The build
    # owns one sheaf view, which computes each step once, and pairs whose
    # local complexes agree by position share it: 82 computations
    read, computed = [], []
    step, columns = LocalHomologySheaf.step, LocalHomologySheaf._columns

    def counted_step(self, lo, hi):
        read.append((lo, hi))
        return step(self, lo, hi)

    def counted_columns(self, s, t, kept):
        computed.append((id(self._stalk(s)[0]), id(self._stalk(t)[0]), kept))
        return columns(self, s, t, kept)

    monkeypatch.setattr(LocalHomologySheaf, "step", counted_step)
    monkeypatch.setattr(LocalHomologySheaf, "_columns", counted_columns)
    X = COMPLEXES["sd_torus"]()
    stages = [X.order[:6 * i] for i in range(1, 8)]
    system, gammas = build_restriction_system(LocalContext(X, ZZ), None, 2,
                                              stages)
    pairs = {(t[:j] + t[j + 1:], t) for t in X.simplices(1) for j in (0, 1)}
    assert len(read) == 672 and set(read) == pairs and len(pairs) == 252
    assert len(computed) == len(set(computed)) == 82
    assert len(system) == 7 and gammas[-1].free_rank == 1


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("name", ["t4", "sd_torus"])
def test_sections_computes_no_step_above_degree_one(monkeypatch, tmp_path,
                                                    name, filtered):
    # a section basis reads the degree-0 coboundary alone, and the pairing
    # with degree-0 cosheaf homology the boundaries of edges alone, so a
    # `sections` run, with or without a filtration, steps from vertices to
    # edges and never from edges to triangles
    dims = Counter()
    step = localhomology._LocalView.step

    def counted(self, lo, hi):
        dims[(len(lo) - 1, len(hi) - 1)] += 1
        return step(self, lo, hi)

    monkeypatch.setattr(localhomology._LocalView, "step", counted)
    path = os.path.join(FIXDIR, f"{name}.cplx")
    argv = ["sections", "--ring", "z", "--complex", path,
            "--out", str(tmp_path / "report.json")]
    if filtered:
        with open(path, encoding="utf-8") as fh:
            order = parse_complex(fh.read()).order
        (tmp_path / "x.filt").write_text(
            "".join("stage: " + " ".join(map(str, order[:k])) + "\n"
                    for k in (len(order) // 2, len(order))), encoding="utf-8")
        argv += ["--filtration", str(tmp_path / "x.filt")]
    assert main(argv) == 0
    assert dims[(0, 1)] and set(dims) == {(0, 1)}, dict(dims)
