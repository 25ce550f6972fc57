"""Every chain complex lochom builds is a complex: d∘d = 0 and matching labels.

`ChainComplex` checks neither when it is built, so these tests are where the
builders are held to it: the positional local complexes at every simplex
and the reduced complexes of their links (read with position labels), plain
(co)chains of X and of the sub and rel regions of a subcomplex, the
complexes with coefficients in the local-homology sheaf, the
local-cohomology cosheaf and the test-side constant ones
(`sheaf_reference`), the Mayer-Vietoris total and barred relative
complexes, and the evaluation dual of each.  They run on the
fixtures, on sd(rp6) and sd(torus), and on seeded random complexes, over ZZ,
QQ, GF(2) and GF(3).
"""

import os
import random

import pytest

from lochom import localhomology, sheaves
from lochom.complexes import (SimplicialComplex, Subcomplex, parse_complex,
                              reorient_vc_before)
from lochom.localhomology import (LocalCohomologyCosheaf, LocalContext,
                                  LocalHomologySheaf, local_complex)
from lochom.matrices import Matrix
from lochom.mv import MVDoubleComplex
from lochom.rings import GF, QQ, ZZ
from lochom.sheaves import (REGION_X, cosheaf_chain_complex, region_rel,
                            region_sub, sheaf_cochain_complex,
                            simplicial_chain_complex,
                            simplicial_cochain_complex)
from fixture_complexes import FIXTURES, sphere2
from local_reference import as_chain_complex
from sheaf_reference import ConstantCosheaf, ConstantSheaf

RINGS = (ZZ, QQ, GF(2), GF(3))
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def assert_is_complex(cx):
    """Each differential maps basis(deg) to basis(deg + shift), and d∘d = 0
    out of every degree; a failure names the degree."""
    for deg, d in cx.diffs.items():
        assert tuple(d.col_labels) == cx.basis(deg), \
            f"differential at {deg}: wrong source basis"
        assert tuple(d.row_labels) == cx.basis(deg + cx.shift), \
            f"differential at {deg}: wrong target basis"
    for deg in sorted(cx.spaces):
        composite = cx.differential(deg + cx.shift) @ cx.differential(deg)
        assert composite.is_zero(), f"d∘d != 0 at degree {deg}"


def assert_complex_and_dual(cx):
    assert_is_complex(cx)
    assert_is_complex(cx.dual())


def random_complex(seed):
    """3 to 7 vertices, 1 to 6 facets of dimension at most 3, in a shuffled
    vertex order."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    facets = [rng.sample(range(n), rng.randint(1, min(4, n)))
              for _ in range(rng.randint(1, 6))]
    order = sorted({v for f in facets for v in f})
    rng.shuffle(order)
    return SimplicialComplex(facets, order=order)


def _read_fixture(name):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        return parse_complex(fh.read())


COMPLEXES = {**FIXTURES,
             "sd_rp6": lambda: _read_fixture("sd_rp6.cplx"),
             "sd_torus": lambda: _read_fixture("sd_torus.cplx"),
             **{f"random{seed}": lambda seed=seed: random_complex(seed)
                for seed in range(8)}}


def every_built_complex(X, ring, L):
    """Each complex lochom builds from X, its subcomplex L and the ring."""
    ctx = LocalContext(X, ring)
    for s in X.all_simplices():
        local = ctx.complex(s)
        yield as_chain_complex(local)
        yield as_chain_complex(local.link())
    for region in (REGION_X, region_sub(L), region_rel(L)):
        yield simplicial_chain_complex(X, ring, region)
        if region[0] != "rel":
            # a relative region has no augmentation (refused, see below)
            yield simplicial_chain_complex(X, ring, region, reduced=True)
        yield simplicial_cochain_complex(X, ring, region)
        yield sheaf_cochain_complex(LocalHomologySheaf(ctx, X.dim), region)
        yield cosheaf_chain_complex(LocalCohomologyCosheaf(ctx, X.dim), region)
        yield sheaf_cochain_complex(ConstantSheaf(ring, X), region)
        yield cosheaf_chain_complex(ConstantCosheaf(ring, X), region)
    D = MVDoubleComplex(*reorient_vc_before(X, L), ring)
    yield D.total_complex()
    yield D.bar_relative_complex()


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", COMPLEXES)
def test_every_built_complex_has_d_squared_zero(name, ring):
    X = COMPLEXES[name]()
    # a seeded subcomplex on about half of the vertices, never empty
    rng = random.Random(name)
    L = Subcomplex(X, rng.sample(X.order, max(1, len(X.order) // 2)))
    for cx in every_built_complex(X, ring, L):
        assert_complex_and_dual(cx)


def _flip_one_sign(monkeypatch, module, degree):
    """Make `module`'s complexes negate one entry of the differential out of
    `degree`: the first, in the order the builder wrote them."""
    if module is localhomology:
        # the positional builder writes the differential out of level i
        # (degree low + i) as a list
        built = module.LocalComplex.__init__

        def with_one_sign_flipped(self, ring, *args, **kwargs):
            built(self, ring, *args, **kwargs)
            (r, c, v), *rest = self.entries[degree - self.low]
            self.entries[degree - self.low] = [(r, c, ring.neg(v)), *rest]

        monkeypatch.setattr(module.LocalComplex, "__init__",
                            with_one_sign_flipped)
        return
    built = module.ChainComplex

    def with_one_sign_flipped(ring, spaces, diffs, *args, **kwargs):
        d = diffs[degree]
        key = next(iter(d.entries))
        entries = {**d.entries, key: ring.neg(d.entries[key])}
        diffs = {**diffs, degree: Matrix(ring, d.row_labels, d.col_labels,
                                         entries)}
        return built(ring, spaces, diffs, *args, **kwargs)

    monkeypatch.setattr(module, "ChainComplex", with_one_sign_flipped)


@pytest.mark.parametrize("module, flipped, build, named", [
    (localhomology, 2,
     lambda X: as_chain_complex(local_complex(X, ZZ, (0,), {})), 2),
    (sheaves, 1, lambda X: sheaf_cochain_complex(ConstantSheaf(ZZ, X)), 0),
], ids=["local_complex", "coefficient_complex"])
def test_d_squared_check_names_the_degree_of_a_flipped_sign(
        monkeypatch, module, flipped, build, named):
    X = sphere2()
    assert_complex_and_dual(build(X))
    _flip_one_sign(monkeypatch, module, flipped)
    cx = build(X)
    with pytest.raises(AssertionError, match=rf"^d∘d != 0 at degree {named}\b"):
        assert_is_complex(cx)
    # the dual's failing composite is the transpose, two shifts along
    dual_named = named + 2 * cx.shift
    with pytest.raises(AssertionError,
                       match=rf"^d∘d != 0 at degree {dual_named}\b"):
        assert_is_complex(cx.dual())


def test_reduced_chains_of_a_rel_region_are_refused():
    # an edge with one vertex in L keeps the other in the rel region, which
    # an augmentation would send to (): d0∘d1 would not be zero
    X = sphere2()
    with pytest.raises(ValueError, match="^a relative chain complex has no "
                       "augmentation$"):
        simplicial_chain_complex(X, ZZ, region_rel(Subcomplex(X, [0])),
                                 reduced=True)
