"""Combinatorial sheaves and cosheaves on a simplicial complex, their (co)chain
complexes, sections and reorientation isomorphisms.

A sheaf assigns a basis-labelled free module to each simplex and a restriction
matrix to each face relation (covariantly along sigma <= tau); a cosheaf maps
the other way.  Arbitrary-codimension maps are composed from codimension-one
steps, which is well defined exactly when the data is functorial (asserted by
check_functorial for the local homology sheaf and cosheaf of every locally
Cohen-Macaulay fixture in the tests).
"""

from .homology import ChainComplex
from .matrices import Matrix
from .complexes import perm_sign

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


class Sheaf:
    """Covariant functor on the face poset; values are free modules with bases."""

    def __init__(self, ring, X):
        self.ring = ring
        self.X = X

    def stalk(self, simplex):
        raise NotImplementedError

    def restriction_step(self, simplex, cosimplex):
        """Matrix stalk(simplex) -> stalk(cosimplex) for a codim-1 coface."""
        raise NotImplementedError

    def restriction(self, simplex, cosimplex):
        if simplex == cosimplex:
            return Matrix.identity(self.ring, self.stalk(simplex))
        extra = [v for v in cosimplex if v not in simplex]
        cur = tuple(simplex)
        m = Matrix.identity(self.ring, self.stalk(cur))
        for v in extra:
            nxt = self.X.canon(cur + (v,))
            m = self.restriction_step(cur, nxt) @ m
            cur = nxt
        return m

    def check_functorial(self):
        for tau in self.X.all_simplices():
            subs = [s for s in _proper_faces(self.X, tau)]
            for sigma in subs:
                for mid in subs:
                    if set(sigma) < set(mid):
                        lhs = self.restriction(sigma, tau)
                        rhs = self.restriction(mid, tau) @ self.restriction(sigma, mid)
                        if lhs != rhs:
                            raise ValueError(
                                f"sheaf not functorial on {sigma} < {mid} < {tau}")
        return True


class Cosheaf:
    """Contravariant functor on the face poset."""

    def __init__(self, ring, X):
        self.ring = ring
        self.X = X

    def stalk(self, simplex):
        raise NotImplementedError

    def corestriction_step(self, cosimplex, simplex):
        """Matrix stalk(cosimplex) -> stalk(simplex) for a codim-1 face."""
        raise NotImplementedError

    def corestriction(self, cosimplex, simplex):
        if simplex == cosimplex:
            return Matrix.identity(self.ring, self.stalk(simplex))
        extra = [v for v in cosimplex if v not in simplex]
        cur = tuple(cosimplex)
        m = Matrix.identity(self.ring, self.stalk(cur))
        for v in reversed(extra):
            nxt = self.X.canon(tuple(x for x in cur if x != v))
            m = self.corestriction_step(cur, nxt) @ m
            cur = nxt
        return m

    def check_functorial(self):
        for tau in self.X.all_simplices():
            subs = [s for s in _proper_faces(self.X, tau)]
            for sigma in subs:
                for mid in subs:
                    if set(sigma) < set(mid):
                        lhs = self.corestriction(tau, sigma)
                        rhs = self.corestriction(mid, sigma) @ self.corestriction(tau, mid)
                        if lhs != rhs:
                            raise ValueError(
                                f"cosheaf not functorial on {sigma} < {mid} < {tau}")
        return True


def _proper_faces(X, tau):
    out = []
    seen = set()
    stack = [tau]
    while stack:
        s = stack.pop()
        for j in range(len(s)):
            f = s[:j] + s[j + 1:]
            if f and f not in seen:
                seen.add(f)
                out.append(f)
                stack.append(f)
    return out


class ConstantSheaf(Sheaf):
    def __init__(self, ring, X, rank=1):
        super().__init__(ring, X)
        self.rank = rank
        self._labels = tuple(range(rank))

    def stalk(self, simplex):
        return self._labels

    def restriction_step(self, simplex, cosimplex):
        return Matrix.identity(self.ring, self._labels)

    def restriction(self, simplex, cosimplex):
        return Matrix.identity(self.ring, self._labels)


class ConstantCosheaf(Cosheaf):
    def __init__(self, ring, X, rank=1):
        super().__init__(ring, X)
        self.rank = rank
        self._labels = tuple(range(rank))

    def stalk(self, simplex):
        return self._labels

    def corestriction_step(self, cosimplex, simplex):
        return Matrix.identity(self.ring, self._labels)

    def corestriction(self, cosimplex, simplex):
        return Matrix.identity(self.ring, self._labels)


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

def simplicial_chain_complex(X, ring, region=REGION_X, reduced=False):
    """Plain simplicial chains of a region, boundary drops faces outside it.
    Basis labels are the simplices themselves."""
    spaces = {}
    top = X.dim
    for k in range(0, top + 1):
        spaces[k] = region_simplices(X, region, k)
    if reduced:
        spaces[-1] = ((),)
    diffs = {}
    for k in range(0, top + 1):
        src = spaces.get(k, ())
        tgt = spaces.get(k - 1, ())
        tgtset = set(tgt)
        entries = {}
        for s in src:
            for j in range(len(s)):
                f = s[:j] + s[j + 1:]
                if f in tgtset or (reduced and k == 0 and f == ()):
                    sign = ring.from_int((-1) ** j)
                    key = (f, s)
                    entries[key] = ring.add(entries.get(key, ring.zero()), sign)
        if src:
            diffs[k] = Matrix(ring, tgt, src, entries)
    return ChainComplex(ring, spaces, diffs, shift=-1)


def simplicial_cochain_complex(X, ring, region=REGION_X):
    """Plain simplicial cochains of a region (relative = vanishing on L).
    Basis labels are the simplices themselves."""
    spaces = {k: region_simplices(X, region, k) for k in range(X.dim + 1)}
    diffs = {}
    for k in range(X.dim):
        src = spaces.get(k, ())
        tgt = spaces.get(k + 1, ())
        srcset = set(src)
        entries = {}
        for t in tgt:
            for j in range(len(t)):
                f = t[:j] + t[j + 1:]
                if f in srcset:
                    entries[(t, f)] = ring.from_int((-1) ** j)
        if src or tgt:
            diffs[k] = Matrix(ring, tgt, src, entries)
    return ChainComplex(ring, spaces, diffs, shift=+1)


def sheaf_cochain_complex(F, region=REGION_X, support="compact"):
    """Cochains with coefficients in the sheaf F over a region.  Basis labels
    are (simplex, stalk label).  `support` is descriptive only (finite case)."""
    X, ring = F.X, F.ring
    spaces = {}
    for k in range(X.dim + 1):
        spaces[k] = tuple((s, lab) for s in region_simplices(X, region, k)
                          for lab in F.stalk(s))
    diffs = {}
    for k in range(X.dim):
        src, tgt = spaces.get(k, ()), spaces.get(k + 1, ())
        entries = {}
        for t in region_simplices(X, region, k + 1):
            for j in range(len(t)):
                f = t[:j] + t[j + 1:]
                if not in_region(X, region, f):
                    continue
                sign = ring.from_int((-1) ** j)
                block = F.restriction(f, t)
                for (rl, cl), v in block.entries.items():
                    key = ((t, rl), (f, cl))
                    entries[key] = ring.add(entries.get(key, ring.zero()),
                                            ring.mul(sign, v))
        if src or tgt:
            diffs[k] = Matrix(ring, tgt, src, entries)
    return ChainComplex(ring, spaces, diffs, shift=+1)


def cosheaf_chain_complex(G, region=REGION_X, variant="finite"):
    """Chains with coefficients in the cosheaf G over a region (relative =
    cokernel, spanned by simplices outside L)."""
    X, ring = G.X, G.ring
    spaces = {}
    for k in range(X.dim + 1):
        spaces[k] = tuple((s, lab) for s in region_simplices(X, region, k)
                          for lab in G.stalk(s))
    diffs = {}
    for k in range(1, X.dim + 1):
        src, tgt = spaces.get(k, ()), spaces.get(k - 1, ())
        entries = {}
        for s in region_simplices(X, region, k):
            for j in range(len(s)):
                f = s[:j] + s[j + 1:]
                if not in_region(X, region, f):
                    continue
                sign = ring.from_int((-1) ** j)
                block = G.corestriction(s, f)
                for (rl, cl), v in block.entries.items():
                    key = ((f, rl), (s, cl))
                    entries[key] = ring.add(entries.get(key, ring.zero()),
                                            ring.mul(sign, v))
        if src or tgt:
            diffs[k] = Matrix(ring, tgt, src, entries)
    return ChainComplex(ring, spaces, diffs, shift=-1)


# -- sections -----------------------------------------------------------------

class SectionsModule:
    """Global sections of a sheaf over a region: the kernel of the degree-0
    coboundary, with an explicit basis of vertex-value vectors."""

    def __init__(self, F, region=REGION_X):
        from .matrices import kernel_basis
        self.F = F
        self.region = region
        self.complex = sheaf_cochain_complex(F, region)
        d0 = self.complex.differential(0)
        self.basis = kernel_basis(d0)
        self.vertex_labels = self.complex.basis(0)

    @property
    def rank(self):
        return len(self.basis)

def sections(F, L=None):
    """Sections over the full subcomplex L (or all of X) plus the comparison
    with H^0: both are literally the kernel of the degree-0 coboundary."""
    region = region_sub(L) if L is not None else REGION_X
    mod = SectionsModule(F, region)
    h0 = mod.complex.homology(0)
    # H^0 = ker(delta^0) on the nose (nothing to quotient in degree 0), so the
    # witness is that every H^0 generator is a section and ranks agree exactly
    iso = (h0.free_rank == mod.rank and not h0.torsion
           and all(h0.is_cycle(g) for g in mod.basis))
    return {"sections": mod, "h0": h0, "iso": iso}


# -- reorientation ------------------------------------------------------------

def _label_to_simplex(label):
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):
        return label[0], label[1:]
    return label, ()


def reorientation_iso(complex1, complex2, X1, X2):
    """Diagonal sign isomorphism between complexes built over two vertex
    orders: each simplex-indexed basis element maps to its re-sorted twin with
    the sign of the vertex permutation."""
    ring = complex1.ring
    out = {}
    degs = sorted(set(complex1.degrees()) | set(complex2.degrees()))
    for deg in degs:
        src = complex1.basis(deg)
        tgt = complex2.basis(deg)
        entries = {}
        for lab in src:
            simplex, rest = _label_to_simplex(lab)
            resorted = tuple(sorted(simplex, key=X2.pos.__getitem__))
            sign = perm_sign(simplex, X2.pos.__getitem__)
            tlab = (resorted,) + tuple(rest) if rest else resorted
            entries[(tlab, lab)] = ring.from_int(sign)
        out[deg] = Matrix(ring, tgt, src, entries)
    return out
