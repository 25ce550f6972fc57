"""The positional local layer against labelled references built from the
definitions (`local_reference`), at every simplex of the fixtures, sd(rp6),
sd(torus) and eight seeded random complexes, over ZZ, QQ, GF(2) and GF(3).
Its summaries are checked against full presentations in
`test_local_homology.test_local_factor_summaries_match_presentations`.
"""

import pytest

from local_reference import link_complex, reference_local_complex
from lochom.localhomology import LocalContext
from lochom.matrices import _positions
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import simplicial_chain_complex
from test_chain_complexes import COMPLEXES

RINGS = (ZZ, QQ, GF(2), GF(3))


def _entries(M):
    return [(r, c, v, type(v)) for (r, c), v in M.entries.items()]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_positional_keys_equal_the_labelled_references(name, ring):
    # each degree's key is `_positions` of the labelled differential, and
    # the labelled d_n a stalk reads is the reference's, entry order and
    # entry types included; the link's keys are those of the reduced chains
    # of the link, with their own signs and the augmentation in degree 0
    X = COMPLEXES[name]()
    ctx = LocalContext(X, ring)
    for s in X.all_simplices():
        local = ctx.complex(s)
        ref = reference_local_complex(X, ring, s)
        for k in range(-1, X.dim + 2):
            d = ref.differential(k)
            assert local.key(k) == _positions(d), (s, k)
            built = local.differential(k)
            assert (built.row_labels, built.col_labels) == \
                (d.row_labels, d.col_labels), (s, k)
            assert _entries(built) == _entries(d), (s, k)
        link = local.link()
        ref_link = simplicial_chain_complex(link_complex(X, s), ring,
                                            reduced=True)
        for k in range(-2, X.dim + 1):
            assert link.key(k) == _positions(ref_link.differential(k)), \
                (s, k)
            assert link.homology_summary(k) == \
                ref_link.homology_summary(k), (s, k)

