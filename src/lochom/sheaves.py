"""Combinatorial sheaves and cosheaves on a simplicial complex, their (co)chain
complexes and sections.

A sheaf assigns a basis-labelled free module to each simplex and a restriction
matrix to each face relation (covariantly along sigma <= tau); a cosheaf maps
the other way.  One engine serves both.  Arbitrary-codimension maps are
composed from codimension-one steps along one chain of faces, walked down
for a cosheaf; this is well defined exactly when the data is functorial,
which check_functorial decides (`io.parse_sheaf` runs it on every sheaf it
reads, the tests on the local homology sheaf and cosheaf of the fixtures).
One builder gives the cochains of a sheaf and the chains of a cosheaf, and
plain cochains are the transposed plain chains.
"""

from itertools import combinations

from .homology import ChainComplex
from .matrices import Matrix

# region descriptors: ("X",), ("sub", L), ("rel", L)
REGION_X = ("X",)


def region_sub(L):
    return ("sub", L)


def region_rel(L):
    return ("rel", L)


def in_region(X, region, simplex):
    if not X.contains(simplex):
        return False
    if region[0] == "X":
        return True
    if region[0] == "sub":
        return region[1].contains(simplex)
    if region[0] == "rel":
        return not region[1].contains(simplex)
    raise ValueError(f"bad region {region!r}")


def region_simplices(X, region, k):
    return tuple(s for s in X.simplices(k) if in_region(X, region, s))


class _FacePosetFunctor:
    """What sheaves and cosheaves share: free stalks with bases, maps of any
    codimension composed from codimension-one steps, and the check that this
    composition is functorial.  A subclass defines `stalk(simplex)`, the
    tuple of basis labels, and its codimension-one step."""

    covariant = True

    def __init__(self, ring, X):
        self.ring = ring
        self.X = X

    def _along(self, lo, hi):
        """The map between the stalks of lo <= hi: lo -> hi for a sheaf,
        hi -> lo for a cosheaf."""
        return (self.restriction(lo, hi) if self.covariant
                else self.corestriction(hi, lo))

    def step_entries(self, lo, hi):
        """The nonzeros ((row, column), value) of the map between the
        stalks of a codimension-one pair lo < hi, in the order of its
        matrix's `entries`."""
        return self._along(lo, hi).entries.items()

    def _compose(self, lo, hi, step):
        """Product of the codimension-one steps along the chain
        lo = c_0 < c_1 < ... < c_r = hi that adds hi's extra vertices in
        order: step(c_j, c_j+1) upward for a sheaf, step(c_j+1, c_j) down
        the same chain for a cosheaf."""
        chain = [tuple(lo)]
        for v in hi:
            if v not in lo:
                chain.append(self.X.canon(chain[-1] + (v,)))
        if len(chain) == 1:
            return Matrix.identity(self.ring, self.stalk(lo))
        if not self.covariant:
            chain.reverse()
        m = step(chain[0], chain[1])
        for a, b in zip(chain[1:], chain[2:]):
            m = step(a, b) @ m
        return m

    def check_functorial(self):
        """True, or ValueError naming the first sigma < mid < tau where the
        map along sigma < tau differs from the composite through mid."""
        for tau in self.X.all_simplices():
            subs = [f for k in range(1, len(tau)) for f in combinations(tau, k)]
            for sigma in subs:
                for mid in subs:
                    if set(sigma) < set(mid):
                        first = self._along(sigma, mid)
                        then = self._along(mid, tau)
                        composite = (then @ first if self.covariant
                                     else first @ then)
                        if self._along(sigma, tau) != composite:
                            raise ValueError(
                                f"{self.kind} not functorial on "
                                f"{sigma} < {mid} < {tau}")
        return True


class Sheaf(_FacePosetFunctor):
    """Covariant functor on the face poset; values are free modules with
    bases.  Its step `restriction_step(simplex, cosimplex)` is the matrix
    stalk(simplex) -> stalk(cosimplex) for a codim-1 coface."""

    kind = "sheaf"

    def restriction(self, simplex, cosimplex):
        return self._compose(simplex, cosimplex, self.restriction_step)


class Cosheaf(_FacePosetFunctor):
    """Contravariant functor on the face poset.  Its step
    `corestriction_step(cosimplex, simplex)` is the matrix stalk(cosimplex)
    -> stalk(simplex) for a codim-1 face."""

    kind = "cosheaf"
    covariant = False

    def corestriction(self, cosimplex, simplex):
        return self._compose(simplex, cosimplex, self.corestriction_step)


class _Constant:
    """Constant coefficients: every stalk has the basis 0..rank-1 and every
    map is the identity."""

    def __init__(self, ring, X, rank=1):
        super().__init__(ring, X)
        self.rank = rank
        self._labels = tuple(range(rank))

    def stalk(self, simplex):
        return self._labels

    def _identity(self, simplex, other):
        return Matrix.identity(self.ring, self._labels)


class ConstantSheaf(_Constant, Sheaf):
    """The constant sheaf of rank `rank`."""

    restriction_step = restriction = _Constant._identity


class ConstantCosheaf(_Constant, Cosheaf):
    """The constant cosheaf of rank `rank`."""

    corestriction_step = corestriction = _Constant._identity


class DictSheaf(Sheaf):
    """Sheaf given by explicit stalk bases and codim-1 restriction matrices."""

    def __init__(self, ring, X, stalks, steps):
        super().__init__(ring, X)
        self._stalks = dict(stalks)
        self._steps = dict(steps)

    def stalk(self, simplex):
        return tuple(self._stalks[tuple(simplex)])

    def restriction_step(self, simplex, cosimplex):
        return self._steps[(tuple(simplex), tuple(cosimplex))]


# -- chain complexes ----------------------------------------------------------

def simplicial_chain_complex(X, ring, region=REGION_X, reduced=False,
                             memo=None):
    """Plain simplicial chains of a region, boundary drops faces outside it,
    factored through `memo` (`ChainComplex`).  Basis labels are the
    simplices themselves.  `reduced` adds the empty simplex () in degree -1,
    the augmentation of X or of a sub region (a rel region has none)."""
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
    return ChainComplex(ring, spaces, diffs, shift=-1, memo=memo)


def simplicial_cochain_complex(X, ring, region=REGION_X):
    """Plain simplicial cochains of a region (relative = vanishing on L): the
    evaluation dual of `simplicial_chain_complex`, with the same bases and
    delta_(k-1) the transpose of d_k.  Basis labels are the simplices
    themselves."""
    return simplicial_chain_complex(X, ring, region).dual()


def _coefficient_complex(A, region, max_degree=None):
    """Simplicial (co)chains of a region with coefficients in the sheaf or
    cosheaf A, in degrees up to `max_degree` (dim X when None); basis
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

