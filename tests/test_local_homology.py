"""Local (co)homology stalks, link cross-checks, CM detection, duality of
stalks."""

import os
from collections import Counter

import pytest

from lochom import localhomology, matrices, sectionsduality, simplicialmaps
from lochom.cli import main
from lochom.complexes import SimplicialComplex, Subcomplex
from lochom.fixtures import circle3, hexagon, rp2_six
from lochom.homology import (ChainComplex, CokerPresentation, CycleBasis,
                            FactorSummaries, HomologyPresentation)
from lochom.localhomology import (LocalContext, LocalHomologySheaf, cm_check,
                                  link_crosscheck, local_cm_check, uct_report)
from lochom.rings import GF, QQ, ZZ
from lochom.simplicialmaps import SimplicialMap, verify_naturality
from fixture_complexes import FIXTURES, bowtie, sphere2, triangle
from local_reference import reference_local_complex, reference_uct_report
from test_chain_complexes import COMPLEXES

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def local_homology(X, ring, s, k):
    """Degree-k local homology at s, presented on the labelled reference."""
    return reference_local_complex(X, ring, s).homology(k)


def local_cohomology(X, ring, s, k):
    """The same for the evaluation dual of the reference complex."""
    return reference_local_complex(X, ring, s).dual().homology(k)


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
    # the positional summaries against full presentations of the labelled
    # reference complex, on the fixtures, sd(rp6), sd(torus) and random
    # complexes
    for fn in COMPLEXES.values():
        X = fn()
        ctx = LocalContext(X, ring)
        for s in X.all_simplices():
            cx = ctx.complex(s)
            for k in range(-1, X.dim + 2):
                assert repr(cx.homology_summary(k)) == repr(
                    local_homology(X, ring, s, k).rank_summary), (s, k)
                assert repr(cx.cohomology_summary(k)) == repr(
                    local_cohomology(X, ring, s, k).rank_summary), (s, k)


@pytest.mark.parametrize("name, n", [("c3", 1), ("t4", 2), ("rp6", 2)])
def test_local_command_factors_once_and_presents_only_degree_n(
        monkeypatch, tmp_path, name, n):
    # every local and link differential is factored once, through the
    # context's memo, by position; --dim n presents each distinct d_n once
    # (`LocalContext.pairings`) and builds no homology presentation
    degrees, built, positional = [], [0], set()
    factored, presented = Counter(), Counter()
    present, init = ChainComplex.homology, HomologyPresentation.__init__
    positional_init = localhomology.LocalComplex.__init__
    coker_init = CokerPresentation.__init__
    eliminate = matrices._eliminate

    def counted_homology(self, deg):
        degrees.append(deg)
        return present(self, deg)

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def recorded_positional(self, *args, **kwargs):
        positional_init(self, *args, **kwargs)
        positional.update(self.keys.values())

    def counted_coker(self, ring, relations, *args):
        presented[matrices._positions(relations)] += 1
        coker_init(self, ring, relations, *args)

    def counted_factors(source, track):
        # factors-only eliminations, keyed by the `_positions` they read
        if not track:
            factored[source[1]] += 1
        return eliminate(source, track)

    monkeypatch.setattr(ChainComplex, "homology", counted_homology)
    monkeypatch.setattr(HomologyPresentation, "__init__", counted_init)
    monkeypatch.setattr(localhomology.LocalComplex, "__init__",
                        recorded_positional)
    monkeypatch.setattr(CokerPresentation, "__init__", counted_coker)
    monkeypatch.setattr(matrices, "_eliminate", counted_factors)
    base = ["local", "--complex", os.path.join(FIXDIR, f"{name}.cplx"),
            "--out", str(tmp_path / "report.json")]
    for extra in ([], ["--dim", str(n)]):
        degrees.clear()
        built[0] = 0
        positional.clear()
        factored.clear()
        presented.clear()
        assert main(base + extra) == 0
        # --dim n pairs a degree-n cycle basis with the degree-n cokernel
        # presentation, so neither run builds a homology presentation
        assert built[0] == len(degrees) == 0
        local = [factored[key] for key in positional if key in factored]
        assert local and max(local) == 1
        assert bool(presented) == bool(extra)
        assert max(presented.values(), default=1) == 1


@pytest.mark.parametrize("item", ["1ai", "2bii"])
def test_duality_on_sd_torus_eliminates_32_matrices(monkeypatch, tmp_path,
                                                     item):
    # sd(torus)'s 252 local complexes come in few combinatorial types, a
    # stalk's d_n is the one the CM check factored, and a relation matrix
    # can equal a boundary by position: each owner's memo eliminates each
    # matrix once (389 eliminations for either item without the memo; 2bii
    # reads the cosheaf, whose stalk cokernels factor through the memo too).
    # The stalks and steps are positional, so few `Matrix` objects are
    # built (101 for 1ai, 105 for 2bii; 1,294 and 1,550 with a labelled
    # stalk per simplex and a `Matrix` per step)
    runs, built = [0], [0]
    eliminate = matrices._eliminate
    init = matrices.Matrix.__init__

    def counted(M, track):
        runs[0] += 1
        return eliminate(M, track)

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    monkeypatch.setattr(matrices.Matrix, "__init__", counted_init)
    assert main(["duality", "--item", item, "--ring", "z", "--complex",
                 os.path.join(FIXDIR, "sd_torus.cplx"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert runs[0] == 32
    assert built[0] <= {"1ai": 110, "2bii": 115}[item]


def test_local_dim_2_on_sd_torus_eliminates_53_matrices(monkeypatch,
                                                        tmp_path):
    # the UCT pairing is evaluated once per distinct top local differential
    # (`LocalContext.pairings`); paired afresh at each of the 252 simplices
    # it took 610 eliminations
    runs = [0]
    eliminate = matrices._eliminate

    def counted(M, track):
        runs[0] += 1
        return eliminate(M, track)

    monkeypatch.setattr(matrices, "_eliminate", counted)
    assert main(["local", "--dim", "2", "--ring", "z", "--complex",
                 os.path.join(FIXDIR, "sd_torus.cplx"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert runs[0] == 53


@pytest.mark.parametrize("command, calls", [(["local", "--dim", "2"], 154),
                                            (["check-cm"], 36)])
def test_local_summaries_are_computed_once_per_star_type(
        monkeypatch, tmp_path, command, calls):
    # sd(rp6)'s 181 local complexes come in 11 types: `local` builds one row
    # of 3 homology and 3 cohomology summaries per type and compares the 4
    # degrees of each side of the link cross-check once per pair of types
    # (2,896 summaries asked simplex by simplex); `check-cm` builds only
    # the homology rows, plus 3 reduced global summaries (365 before)
    runs = [0]
    summary = FactorSummaries._summary

    def counted(self, *args):
        runs[0] += 1
        return summary(self, *args)

    monkeypatch.setattr(FactorSummaries, "_summary", counted)
    assert main([*command, "--ring", "z", "--complex",
                 os.path.join(FIXDIR, "sd_rp6.cplx"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert runs[0] == calls


# the top local differentials at vertices 0 and 5 have one shape, 4 x 3,
# and kernels of ranks 1 (link: a triangle and a point) and 0 (a path)
CONE_AND_FAN = [[0, 1, 2], [0, 2, 3], [0, 1, 3], [0, 4], [5, 6, 7], [5, 7, 8],
                [5, 8, 9]]
# the fixtures, sd(rp6), sd(torus) and eight seeded random complexes
UCT_COMPLEXES = {**COMPLEXES,
                 "cone_and_fan": lambda: SimplicialComplex(CONE_AND_FAN)}


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
@pytest.mark.parametrize("name", sorted(UCT_COMPLEXES))
def test_uct_report_through_one_context_equals_a_fresh_one(name, ring):
    X = UCT_COMPLEXES[name]()
    for n in (X.dim, X.dim - 1):
        shared = LocalContext(X, ring)
        for s in X.all_simplices():
            assert (uct_report(shared, s, n)
                    == uct_report(LocalContext(X, ring), s, n)), (s, n)


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
@pytest.mark.parametrize("name", sorted(UCT_COMPLEXES))
def test_uct_report_equals_the_labelled_reference(name, ring):
    # the report read from the positional d_n is the one the labelled d_n
    # gives, in every field, its value and its type
    X = UCT_COMPLEXES[name]()
    for n in (X.dim, X.dim - 1):
        ctx = LocalContext(X, ring)
        for s in X.all_simplices():
            rep = uct_report(ctx, s, n)
            ref = reference_uct_report(X, ring, s, n)
            assert rep == ref and repr(rep) == repr(ref), (s, n)


@pytest.mark.parametrize("name", ["c3", "hex", "rp6", "t4", "sd_rp6",
                                  "sd_torus"])
def test_a_broken_pairing_fails_at_every_simplex_on_both_paths(
        monkeypatch, name):
    # every top stalk of a closed pseudomanifold is nonzero, so a doubled
    # evaluation pairing has an even invariant factor everywhere: a cached
    # result must carry that failure to every simplex that hits it
    X = UCT_COMPLEXES[name]()

    def reports():
        shared = LocalContext(X, ZZ)
        return [(uct_report(shared, s, X.dim),
                 uct_report(LocalContext(X, ZZ), s, X.dim))
                for s in X.all_simplices()]

    assert all(a["pairing_unimodular"] and b["pairing_unimodular"]
               for a, b in reports())
    dot = localhomology.vec_dot
    monkeypatch.setattr(localhomology, "vec_dot",
                        lambda ring, u, v: 2 * dot(ring, u, v))
    for a, b in reports():
        assert a == b
        assert not a["pairing_unimodular"] and not a["ok"], a["simplex"]


def _record_local_presentations(monkeypatch):
    """Record each presentation built on a local differential as (memo
    identity, kind, matrix by position): the stalks a `LocalContext`
    builds through its memo, a `CycleBasis` of a positional d_n for the
    sheaf and a `CokerPresentation` of its transpose for the cosheaf, and
    `uct_report`'s cokernel of d_n's transpose, which takes no memo.
    Presentations of global complexes have their own memos and are not
    recorded."""
    built, contexts = [], []
    context_init = LocalContext.__init__
    coker_init = CokerPresentation.__init__
    cycles_init = CycleBasis.__init__

    def recorded_context(self, *args):
        context_init(self, *args)
        contexts.append(self)  # keeps every memo id unique

    def local(memo):
        return any(ctx.memo is memo for ctx in contexts)

    def recorded_coker(self, ring, relations, memo=None):
        if memo is None or local(memo):
            built.append((id(memo), "cokernel",
                          matrices._positions(relations)))
        coker_init(self, ring, relations, memo)

    def recorded_cycles(self, d_out, memo):
        if local(memo):
            built.append((id(memo), "cycles", matrices._positions(d_out)))
        cycles_init(self, d_out, memo)

    monkeypatch.setattr(LocalContext, "__init__", recorded_context)
    monkeypatch.setattr(CokerPresentation, "__init__", recorded_coker)
    monkeypatch.setattr(CycleBasis, "__init__", recorded_cycles)
    return built


def _run_once_each(built, argv, out):
    built.clear()
    assert main([*argv, "--out", out]) in (0, 1)
    repeated = [key for key, c in Counter(built).items() if c > 1]
    assert not repeated, (argv, repeated[:3])
    return len(built)


@pytest.mark.parametrize("name", ["bowtie", "c3", "delta2", "hex", "rp6",
                                  "t4"])
def test_no_command_builds_a_local_presentation_twice(monkeypatch, tmp_path,
                                                      name):
    built = _record_local_presentations(monkeypatch)
    cplx = os.path.join(FIXDIR, f"{name}.cplx")
    n = str(FIXTURES[name]().dim)
    total = sum(
        _run_once_each(built, [*command, "--complex", cplx],
                       str(tmp_path / "report.json"))
        for command in (["homology"], ["duality", "--item", "1ai"],
                        ["duality", "--item", "2bi"], ["local", "--dim", n]))
    assert total


def test_sections_and_naturality_build_each_local_presentation_once(
        monkeypatch, tmp_path):
    built = _record_local_presentations(monkeypatch)
    calls = Counter()
    stages = ("lf_h0_check", "build_restriction_system",
              "semistability_check")
    for stage in stages:
        def counted(*args, _run=getattr(sectionsduality, stage), _name=stage):
            calls[_name] += 1
            return _run(*args)
        monkeypatch.setattr(sectionsduality, stage, counted)
    out = str(tmp_path / "report.json")
    # --dim 2 on the circle refuses and still reports semistability
    sizes = []
    for dim in ("1", "2"):
        calls.clear()
        sizes.append(_run_once_each(built, [
            "sections", "--dim", dim,
            "--complex", os.path.join(FIXDIR, "c3.cplx"),
            "--filtration", os.path.join(FIXDIR, "c3_arcs.filt")], out))
        assert calls == {stage: 1 for stage in stages}, dim
    assert sizes[0]
    assert _run_once_each(built, [
        "naturality", "--complex", os.path.join(FIXDIR, "hex.cplx"),
        "--target", os.path.join(FIXDIR, "c3.cplx"),
        "--map", os.path.join(FIXDIR, "hex_to_c3.map")], out)


def test_a_self_map_builds_each_local_presentation_once(monkeypatch):
    # source and target are one complex object, so they share one context,
    # one local CM check and one duality map per item
    built = _record_local_presentations(monkeypatch)
    calls = Counter()
    for name in ("duality_map_matrices", "local_cm_check"):
        def counted(*args, _run=getattr(simplicialmaps, name), _name=name):
            calls[_name] += 1
            return _run(*args)
        monkeypatch.setattr(simplicialmaps, name, counted)
    X = circle3()
    rep = verify_naturality(SimplicialMap(X, X, {v: v for v in X.order}), ZZ)
    assert rep["ok"] and rep["orientation_preserving"]
    assert rep["source_locally_cm"] and rep["target_locally_cm"]
    repeated = [key for key, c in Counter(built).items() if c > 1]
    assert built and not repeated, repeated[:3]
    assert calls == {"duality_map_matrices": 2, "local_cm_check": 1}


def test_link_crosscheck_all_fixtures():
    for fn in FIXTURES.values():
        ctx = LocalContext(fn(), ZZ)
        for s in ctx.X.all_simplices():
            assert link_crosscheck(ctx, s)


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
            local = local_cm_check(LocalContext(X, ring), L, 2)
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
        ctx = LocalContext(fn(), ZZ)
        for s in ctx.X.all_simplices():
            assert uct_report(ctx, s, n)["ok"]


def test_uct_report_fields():
    X = sphere2()
    rep = uct_report(LocalContext(X, ZZ), (0,), 2)
    assert rep["ok"] and rep["locally_cm_here"] and rep["pairing_unimodular"]


def test_stalk_field_dimensions_match_scalars():
    # dimensions over Q agree with free ranks over Z on torsion-free stalks
    X = sphere2()
    for s in X.all_simplices():
        assert (local_homology(X, QQ, s, 2).rank_summary
                == local_homology(X, ZZ, s, 2).rank_summary)


def _items_and_types(vec):
    return [(k, v, type(v)) for k, v in vec.items()]


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), GF(3)), ids=lambda r: r.name)
@pytest.mark.parametrize("name", [*sorted(FIXTURES), "sd_rp6"])
def test_kernel_only_stalks_equal_the_homology_presentations_kernel(name,
                                                                   ring):
    # the sheaf's stalk is the kernel half alone, by position: the labelled
    # cycles and cycle coordinates the sheaf hands out are those of the full
    # presentation on the same local complex, in value, type and key order,
    # and it holds no quotient
    X = COMPLEXES[name]()
    ctx = LocalContext(X, ring)
    for k in range(X.dim + 1):
        F = LocalHomologySheaf(ctx, k)
        for s in X.all_simplices():
            stalk = ctx.positional_stalk(s, k, False)[0]
            full = local_homology(X, ring, s, k)
            assert type(stalk) is CycleBasis and not hasattr(stalk, "gens")
            assert F.stalk(s) == tuple(range(len(full.cycles)))
            assert ([_items_and_types(F.cycle(s, i)) for i in F.stalk(s)]
                    == [_items_and_types(z) for z in full.cycles]), (s, k)
            for z in full.cycles:
                assert (_items_and_types(F.cycle_coordinates(s, z))
                        == _items_and_types(full.cycle_coordinates(z)))
            d = reference_local_complex(X, ring, s).differential(k)
            moved = [c for c in d.col_labels if d.column(c)]
            if moved:
                chain = {moved[0]: ring.one()}
                assert F.cycle_coordinates(s, chain) is None
                assert full.cycle_coordinates(chain) is None


@pytest.mark.parametrize("fault", ["torsion", "extra free generator"])
@pytest.mark.parametrize("name", ["c3", "t4", "rp6"])
def test_uct_fails_on_a_cokernel_summary_that_disagrees(monkeypatch, name,
                                                        fault):
    # concentration and unimodularity still hold, so only the cokernel's
    # summary can fail the report: its torsion, or a free rank other than
    # the cycles' rank
    X = UCT_COMPLEXES[name]()
    assert all(uct_report(LocalContext(X, ZZ), s, X.dim)["ok"]
               for s in X.all_simplices())
    if fault == "torsion":
        summary = property(lambda self: (self.free_rank, [2]))
    else:
        summary = property(lambda self: (self.free_rank + 1, []))
    monkeypatch.setattr(CokerPresentation, "rank_summary", summary)
    ctx = LocalContext(X, ZZ)
    for s in X.all_simplices():
        rep = uct_report(ctx, s, X.dim)
        assert rep["locally_cm_here"] and rep["pairing_unimodular"], s
        assert not rep["ok"], s
