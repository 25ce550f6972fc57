"""Simplicial (co)chain complexes, with constant coefficients or with
coefficients in a combinatorial sheaf or cosheaf, and sections.

A sheaf assigns a basis-labelled free module to each simplex and a map to
each codimension-one face pair, stalk(sigma) -> stalk(tau) for sigma < tau;
a cosheaf maps the other way.  lochom builds two: the top local homology
sheaf and the top local cohomology cosheaf (`lochom.localhomology`).  One
builder gives the cochains of a sheaf and the chains of a cosheaf, reading
only `stalk`, `step_entries` and `covariant`; the tests check that the local
steps compose functorially, which gives d∘d = 0 for these complexes.  Plain
cochains are the transposed plain chains.
"""

from .homology import ChainComplex
from .matrices import Matrix

# region descriptors: ("X",), ("sub", L), ("rel", L)
REGION_X = ("X",)


def region_sub(L):
    return ("sub", L)


def region_rel(L):
    return ("rel", L)


# the eight duality items of `mv.verify_duality`, kept here with the region
# names they use so that the command-line parser reads them without `mv`:
# item -> (cap variant, source region, target region, CM hypothesis, support
# label of the source / target used in reporting)
DUALITY_ITEMS = {
    "1ai":  ("v1", "sub", "rel", "at_L",   "compact", "finite"),
    "1aii": ("v1", "sub", "rel", "at_L",   "full",    "locally finite"),
    "1bi":  ("v1", "rel", "sub", "global", "compact", "finite"),
    "1bii": ("v1", "rel", "sub", "global", "full",    "locally finite"),
    "2ai":  ("v2", "rel", "sub", "at_Lvc", "compact", "finite"),
    "2aii": ("v2", "rel", "sub", "at_Lvc", "full",    "locally finite"),
    "2bi":  ("v2", "sub", "rel", "global", "compact", "finite"),
    "2bii": ("v2", "sub", "rel", "global", "full",    "locally finite"),
}


def in_region(X, region, simplex):
    """Whether a simplex of X lies in the region."""
    if region[0] == "X":
        return True
    if region[0] == "sub":
        return region[1].contains(simplex)
    if region[0] == "rel":
        return not region[1].contains(simplex)
    raise ValueError(f"bad region {region!r}")


def region_simplices(X, region, k):
    return tuple(s for s in X.simplices(k) if in_region(X, region, s))


# -- chain complexes ----------------------------------------------------------

def simplicial_chain_complex(X, ring, region=REGION_X, reduced=False):
    """Plain simplicial chains of a region, boundary drops faces outside it.
    Basis labels are the simplices themselves.  `reduced` adds the empty
    simplex () in degree -1, the augmentation of X or of a sub region (a rel
    region has none)."""
    spaces = {k: region_simplices(X, region, k) for k in range(X.dim + 1)}
    if reduced:
        if region[0] == "rel":
            raise ValueError("a relative chain complex has no augmentation")
        spaces[-1] = ((),)
    diffs = {}
    for k in range(X.dim + 1):
        tgt = spaces.get(k - 1, ())
        tgtset = set(tgt)
        entries = {}
        for s in spaces[k]:
            for j in range(len(s)):
                f = s[:j] + s[j + 1:]
                if f in tgtset:
                    entries[(f, s)] = ring.from_int((-1) ** j)
        if spaces[k]:
            diffs[k] = Matrix(ring, tgt, spaces[k], entries)
    return ChainComplex(ring, spaces, diffs, shift=-1)


def simplicial_cochain_complex(X, ring, region=REGION_X):
    """Plain simplicial cochains of a region (relative = vanishing on L): the
    evaluation dual of `simplicial_chain_complex`, with the same bases and
    delta_(k-1) the transpose of d_k.  Basis labels are the simplices
    themselves."""
    return simplicial_chain_complex(X, ring, region).dual()


def _coefficient_complex(A, region, max_degree=None):
    """Simplicial (co)chains of a region with coefficients in the sheaf or
    cosheaf A (read: its `X`, `ring`, `covariant`, `stalk` and
    `step_entries`), in degrees up to `max_degree` (dim X when None); basis
    labels are (simplex, stalk label).  Each face f of a simplex t
    contributes (-1)^j times the map between their stalks: the restriction
    f -> t, a coboundary, for a sheaf; the corestriction t -> f, a
    boundary, for a cosheaf.  No step above `max_degree` is computed."""
    X, ring = A.X, A.ring
    top = X.dim if max_degree is None else min(max_degree, X.dim)
    spaces = {}
    for k in range(top + 1):
        spaces[k] = tuple((s, lab) for s in region_simplices(X, region, k)
                          for lab in A.stalk(s))
    diffs = {}
    for k in range(top):
        src, tgt = (k, k + 1) if A.covariant else (k + 1, k)
        entries = {}
        for t in region_simplices(X, region, k + 1):
            for j in range(len(t)):
                f = t[:j] + t[j + 1:]
                if not in_region(X, region, f):
                    continue
                sign = ring.from_int((-1) ** j)
                rows, cols = (t, f) if A.covariant else (f, t)
                for (rl, cl), v in A.step_entries(f, t):
                    key = ((rows, rl), (cols, cl))
                    entries[key] = ring.add(entries.get(key, ring.zero()),
                                            ring.mul(sign, v))
        if spaces[src] or spaces[tgt]:
            diffs[src] = Matrix(ring, spaces[tgt], spaces[src], entries)
    return ChainComplex(ring, spaces, diffs, shift=1 if A.covariant else -1)


def sheaf_cochain_complex(F, region=REGION_X, max_degree=None):
    """Cochains with coefficients in the sheaf F over a region, in degrees
    up to `max_degree` (all when None).  Basis labels are (simplex, stalk
    label)."""
    return _coefficient_complex(F, region, max_degree)


def cosheaf_chain_complex(G, region=REGION_X, max_degree=None):
    """Chains with coefficients in the cosheaf G over a region (relative =
    cokernel, spanned by simplices outside L), in degrees up to
    `max_degree` (all when None)."""
    return _coefficient_complex(G, region, max_degree)


# -- sections -----------------------------------------------------------------

def sections(F, L=None):
    """Global sections of F over the full subcomplex L (or all of X): the
    kernel of the degree-0 coboundary, which is H^0 on the nose (nothing
    to quotient in degree 0).  The degree-0 presentation's `cycles` are the
    section basis, `free_rank` its rank, and `cycle_coordinates` writes a
    section in it.  Only degrees 0 and 1 are built: the presentation reads
    the degree-0 coboundary alone."""
    region = region_sub(L) if L is not None else REGION_X
    return sheaf_cochain_complex(F, region, max_degree=1).homology(0)
