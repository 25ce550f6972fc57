"""The double complex, its collapse, and the duality verdicts."""

from lochom.complexes import Subcomplex, reorient_vc_before
from lochom.fixtures import (bowtie, circle3, hexagon, rp2_six, sphere2,
                             triangle)
from lochom.identities import (collapse_suite, collapse_vs_cap,
                               mv_identity_sweep)
from lochom.matrices import vec_clean
from lochom.mv import (DUALITY_ITEMS, MVDoubleComplex, fundamental_class,
                       naturality_report, verify_duality)
from lochom.rings import GF, QQ, ZZ


def test_double_complex_identities_whole_subcomplex():
    for fn in (circle3, triangle, sphere2):
        rep = mv_identity_sweep(fn(), None, ZZ)
        assert rep["ok"], rep["witnesses"]


def test_double_complex_identities_proper_subcomplexes():
    cases = [(circle3(), (2,)), (circle3(), (1, 2)), (sphere2(), (2, 3)),
             (sphere2(), (3,)), (triangle(), (2,))]
    for X, verts in cases:
        X2, L2 = reorient_vc_before(X, Subcomplex(X, verts))
        rep = mv_identity_sweep(X2, L2, ZZ)
        assert rep["ok"], rep["witnesses"]


def test_identity_sweep_takes_each_shift_power_from_the_last(monkeypatch):
    # per generator: powers 1..m (the first also checked against its closed
    # form, the last reused as the top power), m more for the top power's
    # idempotence, and m in each of the two homotopy_to_identity calls
    calls = []
    shift = MVDoubleComplex.diagonal_shift

    def counted(self, chain):
        calls.append(chain)
        return shift(self, chain)

    X = rp2_six()
    X2, L2 = reorient_vc_before(X, Subcomplex(X, (3, 4, 5)))
    D = MVDoubleComplex(X2, L2, ZZ)
    gens = sum(len(D.diagonal_basis(q)) for q in range(X.dim + 1))
    monkeypatch.setattr(MVDoubleComplex, "diagonal_shift", counted)
    rep = mv_identity_sweep(X2, L2, ZZ)
    assert rep["ok"] and rep["checked"] == 68 and gens == 43
    assert len(calls) == 4 * D.power * gens == 516


def test_collapse_suite():
    for X, verts in [(circle3(), None), (sphere2(), (2, 3)),
                     (rp2_six(), (3, 4, 5))]:
        if verts is None:
            rep = collapse_suite(X, None, ZZ)
        else:
            X2, L2 = reorient_vc_before(X, Subcomplex(X, verts))
            rep = collapse_suite(X2, L2, ZZ)
        assert rep["ok"], rep["witnesses"]


def test_collapse_vs_cap_required_pairs():
    assert collapse_vs_cap(circle3(), None, ZZ)["ok"]
    X2, L2 = reorient_vc_before(sphere2(), Subcomplex(sphere2(), (2, 3)))
    assert collapse_vs_cap(X2, L2, ZZ)["ok"]
    assert collapse_vs_cap(rp2_six(), None, ZZ)["ok"]


def test_fundamental_class_is_a_cycle_in_cosheaf_complex():
    from lochom.localhomology import LocalCohomologyCosheaf, LocalContext
    from lochom.mv import project_stalks
    from lochom.sheaves import cosheaf_chain_complex
    for fn, n in ((circle3, 1), (sphere2, 2), (rp2_six, 2)):
        X = fn()
        G = LocalCohomologyCosheaf(LocalContext(X, ZZ), n)
        cc = cosheaf_chain_complex(G)
        vec = project_stalks(G, fundamental_class(X, ZZ))
        out = cc.differential(n).apply(vec)
        assert not vec_clean(ZZ, out)


def test_duality_c3_item_1ai_integral():
    rep = verify_duality(circle3(), None, "1ai", ZZ)
    assert rep["verdict"] and rep["chain_level_commutes"]
    degs = rep["degrees"]
    assert degs[0]["source"] == (1, []) and degs[0]["target"] == (1, [])
    assert degs[1]["source"] == (1, []) and degs[1]["target"] == (1, [])
    assert all(degs[l]["iso"] for l in degs)


def test_duality_t4_item_2bii_betti():
    rep = verify_duality(sphere2(), None, "2bii", ZZ)
    assert rep["verdict"]
    assert [rep["degrees"][l]["source"][0] for l in (0, 1, 2)] == [1, 0, 1]


def test_duality_rp6_item_1ai_mod2_and_integral():
    rep2 = verify_duality(rp2_six(), None, "1ai", GF(2))
    assert rep2["verdict"]
    assert [rep2["degrees"][l]["source"] for l in (0, 1, 2)] == \
        [(1, []), (1, []), (1, [])]
    repz = verify_duality(rp2_six(), None, "1ai", ZZ)
    assert repz["verdict"]
    assert repz["degrees"][1]["source"] == (0, [2])  # transported torsion
    assert repz["degrees"][0]["source"] == (0, [])   # top cohomology dies


def test_duality_bowtie_refused_with_witness():
    rep = verify_duality(bowtie(), None, "1ai", ZZ)
    assert rep["refused"] and not rep["verdict"]
    assert rep["hypothesis"]["witnesses"]
    simplex, degree, _ = rep["hypothesis"]["witnesses"][0]
    assert simplex == (0,) and degree == 1


def test_all_items_on_sphere_and_circle():
    for item in DUALITY_ITEMS:
        assert verify_duality(sphere2(), None, item, ZZ)["verdict"], item
        assert verify_duality(circle3(), None, item, ZZ)["verdict"], item


def test_all_items_proper_subcomplex():
    X = sphere2()
    L = Subcomplex(X, (2, 3))
    for item in DUALITY_ITEMS:
        rep = verify_duality(X, L, item, ZZ)
        assert rep["verdict"], (item, rep)
        assert rep["reoriented"] in (True, False)


def test_duality_field_rings_on_rp6():
    for ring in (QQ, GF(2), GF(3)):
        for item in ("1ai", "2bii"):
            assert verify_duality(rp2_six(), None, item, ring)["verdict"]


def test_support_labels_in_report():
    rep = verify_duality(circle3(), None, "1aii", ZZ)
    assert rep["source_support"] == "full"
    assert rep["target_support"] == "locally finite"


def test_collapse_naturality_for_nested_subcomplexes():
    X = sphere2()
    rep = naturality_report(X, (3,), (2, 3), ZZ)
    assert rep["ok"]
    rep = naturality_report(X, (2, 3), (1, 2, 3), ZZ)
    assert rep["ok"]
    H = hexagon()
    rep = naturality_report(H, (2,), (2, 3), ZZ)
    assert rep["ok"]


def test_naturality_report_sees_a_collapse_that_does_not_commute(
        monkeypatch):
    # negating the collapse of the smaller subcomplex alone keeps every map
    # a chain map and leaves the augmentation alone, but breaks the collapse
    # square at chain level and on homology
    X = sphere2()
    collapse = MVDoubleComplex.c_map

    def negated_for_small(self, chain):
        out = collapse(self, chain)
        if self.L.vertex_set != {3}:
            return out
        return {s: self.ring.neg(v) for s, v in out.items()}

    monkeypatch.setattr(MVDoubleComplex, "c_map", negated_for_small)
    rep = naturality_report(X, (3,), (2, 3), ZZ)
    assert rep["chain_maps"] and rep["augment_square"]
    assert not rep["collapse_square"] and not rep["homology_square"]
    assert not rep["ok"]
