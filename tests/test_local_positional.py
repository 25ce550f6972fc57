"""The positional local layer against labelled references built from the
definitions (`local_reference`), at every simplex and every codimension-one
face pair of the fixtures, sd(rp6), sd(torus) and eight seeded random
complexes, over ZZ, QQ, GF(2) and GF(3): the local complexes, their links,
and the steps of the local homology sheaf and cohomology cosheaf.
Its summaries are checked against full presentations in
`test_local_homology.test_local_factor_summaries_match_presentations`, and
its UCT reports in
`test_local_homology.test_uct_report_equals_the_labelled_reference`.
"""

import pytest

from local_reference import (link_complex, reference_corestriction_step,
                             reference_local_complex,
                             reference_restriction_step, reference_stalk)
from lochom.homology import CycleBasis
from lochom.localhomology import (LocalCohomologyCosheaf, LocalContext,
                                  LocalHomologySheaf)
from lochom.matrices import Matrix, _positions
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex
from fixture_complexes import sphere2
from sheaf_reference import along, step_matrix
from test_chain_complexes import COMPLEXES

RINGS = (ZZ, QQ, GF(2), GF(3))


def _entries(M):
    return [((r, c), v, type(v)) for (r, c), v in M.entries.items()]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_positional_keys_equal_the_labelled_references(name, ring):
    # each degree's key is `_positions` of the labelled differential, and
    # the positional d_k a stalk reads is the reference's re-keyed to basis
    # positions, entry order and entry types included; the link's keys are
    # those of the reduced chains of the link, with their own signs and the
    # augmentation in degree 0
    X = COMPLEXES[name]()
    ctx = LocalContext(X, ring)
    for s in X.all_simplices():
        local = ctx.complex(s)
        ref = reference_local_complex(X, ring, s)
        for k in range(-1, X.dim + 2):
            d = ref.differential(k)
            assert local.key(k) == _positions(d), (s, k)
            built = local.matrix(k)
            assert (built.row_labels, built.col_labels) == \
                (tuple(range(len(d.row_labels))),
                 tuple(range(len(d.col_labels)))), (s, k)
            assert _entries(built) == [
                ((d.row_index[r], d.col_index[c]), v, type(v))
                for ((r, c), v, _) in _entries(d)], (s, k)
        link = local.link()
        ref_link = simplicial_chain_complex(link_complex(X, s), ring,
                                            reduced=True)
        for k in range(-2, X.dim + 1):
            assert link.key(k) == _positions(ref_link.differential(k)), \
                (s, k)
            assert link.homology_summary(k) == \
                ref_link.homology_summary(k), (s, k)



def _matrix_items(M):
    return (M.row_labels, M.col_labels, _entries(M))


def _pairs(X):
    """Every codimension-one pair (face, coface) of X."""
    return [(t[:j] + t[j + 1:], t) for t in X.all_simplices() if len(t) > 1
            for j in range(len(t))]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_steps_equal_the_labelled_references(name, ring):
    # each positional step, both as a `Matrix` of its columns and as the
    # nonzeros the coefficient complexes read, equals the labelled step
    # built on the reference local complexes, in value, type and entry order
    X = COMPLEXES[name]()
    n = X.dim
    ctx = LocalContext(X, ring)
    F, G = LocalHomologySheaf(ctx, n), LocalCohomologyCosheaf(ctx, n)
    stalks = {(s, dual): reference_stalk(X, ring, s, n, dual)
              for s in X.all_simplices() for dual in (False, True)}
    for f, t in _pairs(X):
        ref = reference_restriction_step(
            ring, stalks[f, False], stalks[t, False], f, t)
        assert _matrix_items(step_matrix(F, f, t)) == \
            _matrix_items(ref), (f, t)
        assert [(k, v, type(v)) for k, v in F.step_entries(f, t)] == \
            _entries(ref), (f, t)
        ref = reference_corestriction_step(
            ring, stalks[t, True], stalks[f, True], f)
        assert _matrix_items(step_matrix(G, f, t)) == \
            _matrix_items(ref), (f, t)
        assert [(k, v, type(v)) for k, v in G.step_entries(f, t)] == \
            _entries(ref), (f, t)


def test_a_restriction_image_that_is_no_cycle_is_refused(monkeypatch):
    # the restriction of a top cycle is a cycle, so only a broken stalk
    # reaches the refusal
    F = LocalHomologySheaf(LocalContext(sphere2(), ZZ), 2)
    monkeypatch.setattr(CycleBasis, "cycle_coordinates",
                        lambda self, chain: None)
    with pytest.raises(ValueError, match=r"^restriction image at \(0,\)<"
                       r"\(0, 1\) is not a cycle$"):
        F.step((0,), (0, 1))


def test_a_simplex_restricts_to_itself_by_the_identity():
    # the composite along a chain of one simplex is the empty product
    ctx = LocalContext(sphere2(), ZZ)
    for view in (LocalHomologySheaf(ctx, 2), LocalCohomologyCosheaf(ctx, 2)):
        for s in ((0,), (0, 1), (0, 1, 2)):
            m = along(view, s, s)
            assert m == Matrix.identity(ZZ, view.stalk(s))
            assert list(m.entries.items()) == [((0, 0), 1)]
