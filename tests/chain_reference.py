"""The chain formulas as lochom wrote them before their bodies were trimmed.

Kept as a test oracle beside `dense_reference`: the cap products, the
orientation-swap homotopies, the chain boundaries and the in-place
subtractions of `lochom.caps`, the structure maps of
`lochom.mv.MVDoubleComplex` and the vector helpers of `lochom.matrices`
must return what these return, in value, type and key order.  The bodies
are the old code verbatim; `vec_scale` and `vec_is_zero`, which only the
old `vec_sub` and `vec_eq` called, live here now, and the tests that scale
or test vectors read them from here.
"""

from lochom.matrices import vec_clean
from lochom.mv import MVDoubleComplex


# -- lochom.matrices ----------------------------------------------------------

def vec_add(ring, u, v):
    out = dict(u)
    for k, x in v.items():
        out[k] = ring.add(out.get(k, ring.zero()), x)
    return vec_clean(ring, out)


def vec_scale(ring, a, v):
    if ring.is_zero(a):
        return {}
    return vec_clean(ring, {k: ring.mul(a, x) for k, x in v.items()})


def vec_sub(ring, u, v):
    return vec_add(ring, u, vec_scale(ring, ring.from_int(-1), v))


def vec_is_zero(ring, v):
    return all(ring.is_zero(x) for x in v.values())


def vec_eq(ring, u, v):
    return vec_is_zero(ring, vec_sub(ring, u, v))


# -- lochom.caps --------------------------------------------------------------

def d_chain_local(X, ring, chain):
    """Boundary on chains with local-cohomology generator coefficients:
    d(s, b) = sum_i (-1)^i (s_<i>, b); faces of s still lie under b."""
    out = {}
    for (s, b), v in chain.items():
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            if not f:
                continue
            key = (f, b)
            out[key] = ring.add(out.get(key, ring.zero()),
                                ring.mul(ring.from_int((-1) ** i), v))
    return vec_clean(ring, out)


def d_chain_plain(X, ring, chain):
    """Simplicial boundary on plain R-chains."""
    out = {}
    for s, v in chain.items():
        for i in range(len(s)):
            f = s[:i] + s[i + 1:]
            if not f:
                continue
            out[f] = ring.add(out.get(f, ring.zero()),
                              ring.mul(ring.from_int((-1) ** i), v))
    return vec_clean(ring, out)


def cap_plain(ring, chain, cochain, l):
    """R-coefficient cap: evaluate the cochain on the back face, keep the
    front face."""
    out = {}
    for s, a in chain.items():
        k = len(s) - 1
        if k < l:
            continue
        c = cochain.get(s[k - l:])
        if c is None or ring.is_zero(c):
            continue
        f = s[:k - l + 1]
        out[f] = ring.add(out.get(f, ring.zero()), ring.mul(a, c))
    return vec_clean(ring, out)


def cap_v1(ring, xi, phi, l):
    """First cap: pair the stalk parts, output a plain R-chain."""
    out = {}
    for (s, b), a in xi.items():
        k = len(s) - 1
        if k < l:
            continue
        t = s[k - l:]
        c = phi.get((t, b))
        if c is None or ring.is_zero(c):
            continue
        f = s[:k - l + 1]
        out[f] = ring.add(out.get(f, ring.zero()), ring.mul(a, c))
    return vec_clean(ring, out)


def cap_v2(ring, xi, psi, l):
    """Second cap: evaluate the R-cochain on the back face, keep the stalk."""
    out = {}
    for (s, b), a in xi.items():
        k = len(s) - 1
        if k < l:
            continue
        t = s[k - l:]
        c = psi.get(t)
        if c is None or ring.is_zero(c):
            continue
        key = (s[:k - l + 1], b)
        out[key] = ring.add(out.get(key, ring.zero()), ring.mul(a, c))
    return vec_clean(ring, out)


def _subtract(ring, out, chain, a):
    """out -= a * chain, in place and without cleaning."""
    for key, v in chain.items():
        out[key] = ring.sub(out.get(key, ring.zero()), ring.mul(a, v))


def _b_homotopy_plain(ring, u, w, s, b, t, c, coeff):
    """Orientation-swap homotopy on an R-coefficient generator pair (s, t*):
    nonzero only when u, w sit at the split positions, output the extended
    front face.  This pair has no stalk parts; b and c are ignored, so that
    the three homotopies take the same arguments."""
    k, l = len(s) - 1, len(t) - 1
    if k - l + 1 > k:
        return {}
    if s[k - l] != u or s[k - l + 1] != w:
        return {}
    if t != s[k - l:]:
        return {}
    return {s[:k - l + 2]: ring.mul(ring.from_int((-1) ** (k - l)), coeff)}


def _b_homotopy_v2(ring, u, w, s, b, t, c, coeff):
    """Same homotopy for the second cap: the stalk generator b rides along
    (c is ignored)."""
    out = _b_homotopy_plain(ring, u, w, s, b, t, c, coeff)
    return {(f, b): v for f, v in out.items()}


def _b_homotopy_v1(ring, u, w, s, b, t, c, coeff):
    """Same homotopy for the first cap: the stalk parts are paired away."""
    if b != c:
        return {}
    return _b_homotopy_plain(ring, u, w, s, b, t, c, coeff)


def _subtract_resorted(ring, out, res, bt, chain):
    """out -= chain, each label re-sorted through res without a sign: a
    simplex as res[f], a second-cap label (f, b) as (res[f], bt)."""
    for label, v in chain.items():
        key = res[label][0] if bt is None else (res[label[0]][0], bt)
        out[key] = ring.sub(out.get(key, ring.zero()), v)


# -- lochom.mv ----------------------------------------------------------------

class ReferenceMV(MVDoubleComplex):
    """The double complex with its structure maps as they were; total_d
    reaches the old vertical and horizontal maps through `self`."""

    def vertical_d(self, chain):
        """Summand-wise boundary: drop faces of the carrier that no longer
        contain the subcomplex simplex."""
        ring = self.ring
        out = {}
        for (sigma, alpha), v in chain.items():
            s = set(sigma)
            for j in range(len(alpha)):
                f = alpha[:j] + alpha[j + 1:]
                if not s.issubset(f):
                    continue
                key = (sigma, f)
                out[key] = ring.add(out.get(key, ring.zero()),
                                    ring.mul(ring.from_int((-1) ** j), v))
        return vec_clean(ring, out)

    def horizontal_i(self, chain):
        """Coboundary in the subcomplex direction: extend sigma by one vertex
        of the carrier, with the sign of the position of the new vertex."""
        ring = self.ring
        out = {}
        for (sigma, alpha), v in chain.items():
            s = set(sigma)
            for u in alpha:
                if u in s or not self.L.contains((u,)):
                    continue
                bigger = tuple(sorted(sigma + (u,), key=self.X.pos.__getitem__))
                j = bigger.index(u)
                key = (bigger, alpha)
                out[key] = ring.add(out.get(key, ring.zero()),
                                    ring.mul(ring.from_int((-1) ** j), v))
        return vec_clean(ring, out)

    def total_d(self, chain):
        """(-1)^(k-l) * vertical + horizontal."""
        ring = self.ring
        twisted = {(s, a): ring.mul(ring.from_int((-1) ** (len(a) - len(s))), v)
                   for (s, a), v in chain.items()}
        return vec_add(ring, self.vertical_d(twisted), self.horizontal_i(chain))

    def lambda_lift(self, chain):
        """Last-vertex lift: remove the last vertex of sigma when it is also
        the last vertex of the carrier, with sign (-1)^l; zero on the zeroth
        column."""
        ring = self.ring
        out = {}
        for (sigma, alpha), v in chain.items():
            l = len(sigma) - 1
            if l == 0 or sigma[-1] != alpha[-1]:
                continue
            key = (sigma[:-1], alpha)
            out[key] = ring.add(out.get(key, ring.zero()),
                                ring.mul(ring.from_int((-1) ** l), v))
        return vec_clean(ring, out)

    def kappa(self, chain):
        """Projection of the zeroth column onto relative chains: keep a
        generator only when its vertex is the last vertex of the carrier."""
        ring = self.ring
        out = {}
        for (sigma, alpha), v in chain.items():
            if len(sigma) == 1 and sigma[0] == alpha[-1]:
                out[alpha] = ring.add(out.get(alpha, ring.zero()), v)
        return vec_clean(ring, out)

    def epsilon(self, chain):
        """Augmentation of a relative chain of (X, L^vc) into the zeroth
        column: one component for every vertex of the carrier lying in L."""
        ring = self.ring
        out = {}
        for alpha, v in chain.items():
            for u in alpha:
                if self.L.contains((u,)):
                    key = ((u,), alpha)
                    out[key] = ring.add(out.get(key, ring.zero()), v)
        return vec_clean(ring, out)

    def c_map(self, chain):
        """Collapse of the total complex onto relative chains of (X, L^vc):
        keep the front face of the carrier when sigma is its back face."""
        ring = self.ring
        out = {}
        for (sigma, alpha), v in chain.items():
            k, l = len(alpha) - 1, len(sigma) - 1
            if sigma != alpha[k - l:]:
                continue
            front = alpha[:k - l + 1]
            out[front] = ring.add(out.get(front, ring.zero()), v)
        return vec_clean(ring, out)
