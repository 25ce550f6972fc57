"""End-to-end acceptance run: ten exact-arithmetic criteria, one printed
pass/fail line each."""

import time

from lochom.complexes import Subcomplex, reorient_vc_before
from lochom.fixtures import circle3, rp2_six
from lochom.identities import (collapse_suite, collapse_vs_cap, leibniz_sweep,
                               mv_identity_sweep, swap_sweep)
from lochom.localhomology import LocalContext, link_crosscheck, uct_report
from lochom.mv import verify_duality
from lochom.rings import GF, ZZ
from lochom.simplicialmaps import (SimplicialMap, check_star_local,
                                   shriek_up_preserves_fundamental_class,
                                   verify_naturality)
from lochom.fixtures import hexagon, hexagon_cover_map
from lochom.sectionsduality import (doubling_system, lf_h0_check,
                                    semistability_check)
from fixture_complexes import FIXTURES, bowtie, sphere2
from test_sections_duality import compactly_determined


def report(number, label, ok):
    print("criterion %2d (%s): %s" % (number, label, "PASS" if ok else "FAIL"),
          flush=True)
    assert ok, "criterion %d (%s) failed" % (number, label)


def test_criterion_01_identity_sweep():
    start = time.perf_counter()
    rep = mv_identity_sweep(sphere2(), None, ZZ)
    elapsed = time.perf_counter() - start
    report(1, "double-complex identity sweep", rep["ok"] and elapsed < 5.0)


def test_criterion_02_leibniz_sweep():
    start = time.perf_counter()
    ok = all(leibniz_sweep(FIXTURES[name](), ZZ)["ok"]
             for name in ("c3", "delta2", "t4", "rp6"))
    elapsed = time.perf_counter() - start
    report(2, "Leibniz defect vanishes", ok and elapsed < 10.0)


def test_criterion_03_collapse_suite():
    ok = True
    for X, verts in [(circle3(), None), (sphere2(), (2, 3)),
                     (rp2_six(), None)]:
        if verts is None:
            ok = ok and collapse_suite(X, None, ZZ)["ok"]
        else:
            X2, L2 = reorient_vc_before(X, Subcomplex(X, verts))
            ok = ok and collapse_suite(X2, L2, ZZ)["ok"]
    report(3, "collapse map suite", ok)


def test_criterion_04_collapse_versus_cap():
    ok = collapse_vs_cap(circle3(), None, ZZ)["ok"]
    X2, L2 = reorient_vc_before(sphere2(), Subcomplex(sphere2(), (2, 3)))
    ok = ok and collapse_vs_cap(X2, L2, ZZ)["ok"]
    ok = ok and collapse_vs_cap(rp2_six(), None, ZZ)["ok"]
    report(4, "collapse equals cap with fundamental class", ok)


def test_criterion_05_duality_verdicts():
    start = time.perf_counter()
    rep = verify_duality(circle3(), None, "1ai", ZZ)
    ok = rep["verdict"] and all(
        rep["degrees"][l]["source"] == (1, []) and rep["degrees"][l]["iso"]
        for l in (0, 1))
    rep = verify_duality(sphere2(), None, "2bii", ZZ)
    ok = ok and rep["verdict"] and \
        [rep["degrees"][l]["source"][0] for l in (0, 1, 2)] == [1, 0, 1]
    rep = verify_duality(rp2_six(), None, "1ai", GF(2))
    ok = ok and rep["verdict"] and \
        [rep["degrees"][l]["source"][0] for l in (0, 1, 2)] == [1, 1, 1]
    rep = verify_duality(rp2_six(), None, "1ai", ZZ)
    ok = ok and rep["verdict"]
    ok = ok and rep["degrees"][1]["source"] == (0, [2])  # torsion transported
    ok = ok and rep["degrees"][0]["source"] == (0, [])   # top degree vanishes
    rep = verify_duality(bowtie(), None, "1ai", ZZ)
    ok = ok and rep["refused"] and bool(rep["hypothesis"]["witnesses"])
    elapsed = time.perf_counter() - start
    report(5, "duality verdicts and refusal", ok and elapsed < 30.0)


def test_criterion_06_link_crosscheck():
    ok = all(link_crosscheck(ctx, s)
             for ctx in (LocalContext(fn(), ZZ) for fn in FIXTURES.values())
             for s in ctx.X.all_simplices())
    report(6, "local homology matches link homology", ok)


def test_criterion_07_uct():
    ok = all(uct_report(ctx, s, ctx.X.dim)["ok"]
             for ctx in (LocalContext(fn(), ZZ)
                         for fn in (circle3, sphere2, rp2_six))
             for s in ctx.X.all_simplices())
    report(7, "universal-coefficient perfect pairing", ok)


def test_criterion_08_orientation_swaps():
    ok = all(swap_sweep(fn(), ZZ)["ok"] for fn in FIXTURES.values())
    # homology-level independence via conjugated induced maps
    from test_cap_products import _homology_cap_conjugation
    for X, idx, ring in ((circle3(), 0, ZZ), (circle3(), 1, ZZ),
                         (sphere2(), 1, ZZ), (rp2_six(), 2, GF(2))):
        try:
            _homology_cap_conjugation(X, idx, ring)
        except AssertionError:
            ok = False
    report(8, "orientation-swap homotopies", ok)


def test_criterion_09_functoriality():
    f = SimplicialMap(hexagon(), circle3(), hexagon_cover_map())
    cert = check_star_local(f)
    ok = cert["ok"]
    ok = ok and shriek_up_preserves_fundamental_class(f, cert, ZZ)
    rep = verify_naturality(f, ZZ)
    ok = ok and rep["ok"] and all(rep["covariant"].values()) \
        and all(rep["contravariant"].values())
    report(9, "star-local functoriality and naturality", ok)


def test_criterion_10_sections():
    ok = lf_h0_check(LocalContext(circle3(), ZZ), None, 1)["verdict"]
    ok = ok and lf_h0_check(LocalContext(sphere2(), ZZ), None, 2)["verdict"]
    rep = compactly_determined(circle3(), None, 1, ZZ,
                               [[0], [0, 1], [0, 1, 2]])
    ok = ok and rep["verdict"] and rep["semistable"]
    ok = ok and not semistability_check(doubling_system(ZZ, 6))["semistable"]
    report(10, "section duals and semistability", ok)
