"""The double complex, its collapse, and the duality verdicts."""

import itertools
import json
import os

import pytest

from lochom import cli, identities, mv
from lochom.complexes import (SimplicialComplex, Subcomplex, is_vc_before,
                              parse_complex, parse_subcomplex,
                              reorient_vc_before)
from lochom.fixtures import circle3, hexagon, rp2_six
from lochom.homology import ChainComplex
from lochom.identities import (collapse_suite, collapse_vs_cap,
                               mv_identity_sweep)
from lochom.localhomology import LocalContext
from lochom.matrices import Matrix, vec_add, vec_clean
from lochom.mv import (DUALITY_ITEMS, MVDoubleComplex, fundamental_class,
                       verify_duality)
from lochom.rings import GF, QQ, ZZ
from fixture_complexes import bowtie, sphere2, triangle
from naturality import naturality_report


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


@pytest.mark.parametrize("verts, checked, zero_forms", [
    (None, (210, 1766, 75), (5, 5)), ((2, 3, 4), (96, 660, 46), (0, 0))],
    ids=["whole", "three_vertices"])
def test_double_complex_sweeps_on_the_boundary_of_the_4_simplex(
        verts, checked, zero_forms):
    # in dimension 3 a shift's closed form can have a zero coefficient: the
    # last vertex of sigma sits before the last two of the carrier (a power
    # p's form likewise when the back faces are not incident); below
    # dimension 3 neither happens, and with L on the last three vertices
    # sigma's last vertex is always among them
    X = SimplicialComplex(itertools.combinations(range(5), 4))
    L = None if verts is None else Subcomplex(X, verts)
    reps = [sweep(X, L, ZZ)
            for sweep in (mv_identity_sweep, collapse_suite, collapse_vs_cap)]
    assert all(rep["ok"] for rep in reps), [rep["witnesses"] for rep in reps]
    assert tuple(rep["checked"] for rep in reps) == checked
    D = MVDoubleComplex(X, L, ZZ)
    gens = [gen for q in range(X.dim + 1) for gen in D.diagonal_basis(q)]
    zero_shift = sum(1 for sigma, alpha in gens if len(sigma) > 1
                     and not D.diagonal_shift_closed(sigma, alpha))
    zero_power = sum(1 for sigma, alpha in gens
                     for p in range(1, len(sigma))
                     if not D.diagonal_shift_low_closed(sigma, alpha, p))
    assert (zero_shift, zero_power) == zero_forms


def _negated(fn):
    def wrapper(*args):
        return {key: -v for key, v in fn(*args).items()}
    return wrapper


def _untwisted(fn):
    # the total differential without its (-1)^(k-l) on the vertical part
    def total_d(self, chain):
        return vec_add(self.ring, self.vertical_d(chain),
                       self.horizontal_i(chain))
    return total_d


def _bar_negated(fn):
    def wrapper(self):
        cx = fn(self)
        return ChainComplex(cx.ring, cx.spaces, {
            k: d.scale(-1) for k, d in cx.diffs.items()}, cx.shift)
    return wrapper


# (owner, name, fault) -> witness tags and count of mv_identity_sweep,
# collapse_suite and collapse_vs_cap on sphere2 with L = {2, 3} over Z
SWEEP_FAULTS = {
    (MVDoubleComplex, "total_d", _untwisted): (
        ({"d_total^2", "homotopy_to_identity", "shift_closed_form",
          "shift_power_1_low", "shift_power_2_high", "shift_power_3_high"},
         14),
        ({"augment_chain_map", "augment_of_collapse", "collapse_chain_map",
          "collapse_is_shifted_projection"}, 4),
        (set(), 0)),
    (MVDoubleComplex, "lambda_lift", _negated): (
        ({"augment_after_collapse", "lift_splits_extension",
          "shift_closed_form", "shift_power_1_high", "shift_power_1_low",
          "shift_power_2_high", "shift_power_3_high", "top_power_idempotent",
          "top_power_in_kernel"}, 60),
        ({"augment_of_collapse", "collapse_is_shifted_projection"}, 12),
        (set(), 0)),
    (MVDoubleComplex, "kappa", _negated): (
        ({"augment_after_collapse", "collapse_after_augment"}, 22),
        ({"collapse_is_shifted_projection"}, 14),
        (set(), 0)),
    (MVDoubleComplex, "epsilon", _negated): (
        ({"augment_after_collapse", "collapse_after_augment"}, 22),
        ({"augment_of_collapse", "collapse_of_augment"}, 25),
        (set(), 0)),
    (MVDoubleComplex, "diagonal_shift_closed", _negated): (
        ({"shift_closed_form"}, 14), (set(), 0), (set(), 0)),
    (MVDoubleComplex, "diagonal_shift_low_closed", _negated): (
        ({"shift_power_1_low"}, 3), (set(), 0), (set(), 0)),
    (MVDoubleComplex, "diagonal_shift_high_closed", _negated): (
        ({"shift_power_1_high", "shift_power_2_high", "shift_power_3_high"},
         39), (set(), 0), (set(), 0)),
    (MVDoubleComplex, "diagonal_shift_power", _negated): (
        ({"top_power_idempotent"}, 14),
        ({"augment_of_collapse", "collapse_is_shifted_projection"}, 28),
        (set(), 0)),
    (MVDoubleComplex, "homotopy_to_identity", _negated): (
        ({"homotopy_to_identity"}, 9), (set(), 0), (set(), 0)),
    (MVDoubleComplex, "bar_relative_complex", _bar_negated): (
        (set(), 0), ({"augment_chain_map", "collapse_chain_map"}, 4),
        (set(), 0)),
    (identities, "c_dual", _negated): (
        (set(), 0), ({"dual_collapse_pairing"}, 14), (set(), 0)),
    (identities, "cap_fundamental_v1", _negated): (
        (set(), 0), (set(), 0), ({"first_form"}, 6)),
    (identities, "c_dual_reversed", _negated): (
        (set(), 0), (set(), 0), ({"second_form"}, 6)),
}


@pytest.mark.parametrize("fault", list(SWEEP_FAULTS),
                         ids=lambda fault: f"{fault[1]}-{fault[2].__name__}")
def test_double_complex_sweeps_name_each_injected_fault(monkeypatch, fault):
    owner, name, wrap = fault
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    X = sphere2()
    X2, L2 = reorient_vc_before(X, Subcomplex(X, (2, 3)))
    found = []
    for sweep in (mv_identity_sweep, collapse_suite, collapse_vs_cap):
        rep = sweep(X2, L2, ZZ, max_witnesses=1000)
        witnesses = rep["witnesses"]
        assert rep["ok"] == (not witnesses)
        found.append(({w[0] for w in witnesses}, len(witnesses)))
    assert tuple(found) == SWEEP_FAULTS[fault]


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


def test_project_stalks_keeps_only_nonzero_coordinates():
    # three triangles on one edge: the top local cohomology at the edge is
    # Z^2, and two of the triangles project with a zero coordinate
    from lochom.localhomology import LocalCohomologyCosheaf
    from lochom.mv import project_stalks
    X = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    G = LocalCohomologyCosheaf(LocalContext(X, ZZ), 2)
    e = (0, 1)
    assert G.project(e, {(e, (0, 1, 3)): 1}) == [1, 0]
    assert project_stalks(G, {(e, (0, 1, 3)): 2}) == {(e, 0): 2}
    assert project_stalks(G, {(e, (0, 1, 4)): 2}) == {(e, 1): 2}
    assert project_stalks(G, {(e, (0, 1, 2)): 1, (e, (0, 1, 3)): 1}) == {
        (e, 1): -1}


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


@pytest.mark.parametrize("item", ["1ai", "2bii"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_a_cap_off_by_a_sign_fails_only_the_chain_level_check(
        monkeypatch, item, degree):
    # the negated cap still sends cycles to cycles and is bijective on
    # homology, so only the commutation with the differentials sees it
    cap_matrices = mv.duality_map_matrices

    def negated_in_one_degree(ctx, L, it):
        src, tgt, matrices = cap_matrices(ctx, L, it)
        matrices[degree] = matrices[degree].scale(-1)
        return src, tgt, matrices

    monkeypatch.setattr(mv, "duality_map_matrices", negated_in_one_degree)
    rep = verify_duality(sphere2(), None, item, ZZ)
    assert rep["chain_level_commutes"] is False and rep["verdict"] is False
    assert all(deg["iso"] for deg in rep["degrees"].values())


def test_a_cap_sending_a_cycle_to_a_non_cycle_fails_its_degree(
        monkeypatch, tmp_path):
    # one negated entry of the degree-0 cap: the image of a 0-cocycle is no
    # longer a cycle, so the cap induces no map on homology in degree 0
    cap_matrices = mv.duality_map_matrices

    def one_entry_negated(ctx, L, it):
        src, tgt, matrices = cap_matrices(ctx, L, it)
        m = matrices[0]
        entries = dict(m.entries)
        key = min(entries)
        entries[key] = m.ring.neg(entries[key])
        matrices[0] = Matrix(m.ring, m.row_labels, m.col_labels, entries)
        return src, tgt, matrices

    monkeypatch.setattr(mv, "duality_map_matrices", one_entry_negated)
    rep = verify_duality(circle3(), None, "1ai", ZZ)
    assert rep["verdict"] is False and rep["chain_level_commutes"] is False
    assert rep["degrees"][0] == {"source": (1, []), "target": (1, []),
                                 "iso": False,
                                 "reason": "chain is not a cycle"}
    assert rep["degrees"][1]["iso"] is True
    c3 = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                      "c3.cplx")
    out = tmp_path / "report.json"
    assert cli.main(["duality", "--item", "1ai", "--ring", "z", "--complex",
                     c3, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["degrees"]["0"]["iso"] is False


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


FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture_pair(name, sub):
    """(X, L) from the fixture files, in the order the duality maps need;
    L is the whole complex when sub is None."""
    def read(fname):
        with open(os.path.join(FIXDIR, fname), encoding="utf-8") as fh:
            return fh.read()
    X = parse_complex(read(f"{name}.cplx"))
    if sub is None:
        return X, Subcomplex(X, X.order)
    L = parse_subcomplex(read(f"{sub}.sub"), X)
    return (X, L) if is_vc_before(X, L) else reorient_vc_before(X, L)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=lambda r: r.name)
@pytest.mark.parametrize("name, sub", [("rp6", None), ("rp6", "rp6_345"),
                                       ("t4", None), ("t4", "t4_edge23")])
@pytest.mark.parametrize("item", sorted(DUALITY_ITEMS))
def test_map_columns_equal_caps_with_the_whole_class(monkeypatch, item, name,
                                                     sub, ring):
    # each column caps with only the part of the fundamental class whose
    # back face is the column's simplex; with the whole class relative_cap
    # gives the same value, value types and key order
    X, L = _fixture_pair(name, sub)
    whole = fundamental_class(X, ring)
    cap = mv.relative_cap
    calls = []

    def compared(X_, L_, ring_, part, cochain, l, variant, support):
        out = cap(X_, L_, ring_, part, cochain, l, variant, support)
        ref = cap(X_, L_, ring_, whole, cochain, l, variant, support)
        assert [(k, v, type(v)) for k, v in out.items()] == \
            [(k, v, type(v)) for k, v in ref.items()], (l, cochain)
        assert all(whole[key] == v for key, v in part.items())
        calls.append((l, len(part)))
        return out

    monkeypatch.setattr(mv, "relative_cap", compared)
    src, _, matrices = mv.duality_map_matrices(LocalContext(X, ring), L, item)
    # one cap per source basis element (none when the source is relative
    # to L = X), each with a proper part
    assert [l for l, _ in calls] == [l for l in range(X.dim + 1)
                                     for _ in src.basis(l)]
    assert all(size < len(whole) for _, size in calls)
    assert set(matrices) == set(range(X.dim + 1))
