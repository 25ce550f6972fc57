"""Cap products on local (co)homology generators, their relative variants,
the Leibniz rule as an executable identity, and the orientation-change chain
homotopies.

Conventions.  A chain with local-cohomology coefficients is a dict mapping
generator labels (s, b) -- carrier simplex s of degree k, stalk part b a
simplex containing s -- to ring elements; b need not be a top simplex, and
the sweeps in `identities` label with every simplex b containing s, s itself
included.  An R-chain maps plain simplices to ring elements; a cochain with
local-homology coefficients maps labels (t, c) with c containing t.  Both
caps evaluate on the back face of the carrier:

  v1: (s, b)* cap (t, c) = [t == back(s)] [b == c] front(s)        (R-chain)
  v2: (s, b)* cap t*     = [t == back(s)] (front(s), b)            (h-chain)

where front/back split s after position k - l.  All formulas read tuple
positions in the canonical vertex order of the complex they are applied in.
The sweeps call them hundreds of thousands of times, so each binds its ring
operations once, reads (-1)^j as ring.signs[j & 1], stores a key's first
term as it is (not added to zero) and cleans only a nonempty result.
"""

from itertools import combinations

from .complexes import is_vc_before, perm_sign
from .matrices import vec_clean


# -- chain-level differentials ------------------------------------------------

def d_chain_local(X, ring, chain):
    """Boundary on chains with local-cohomology generator coefficients:
    d(s, b) = sum_i (-1)^i (s_<i>, b); faces of s still lie under b."""
    add, mul, signs = ring.add, ring.mul, ring.signs
    out = {}
    for (s, b), v in chain.items():
        for i in range(len(s) if len(s) > 1 else 0):  # a vertex has none
            key, x = (s[:i] + s[i + 1:], b), mul(signs[i & 1], v)
            out[key] = x if (y := out.get(key)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


def d_chain_plain(X, ring, chain):
    """Simplicial boundary on plain R-chains."""
    add, mul, signs = ring.add, ring.mul, ring.signs
    out = {}
    for s, v in chain.items():
        for i in range(len(s) if len(s) > 1 else 0):  # a vertex has none
            f, x = s[:i] + s[i + 1:], mul(signs[i & 1], v)
            out[f] = x if (y := out.get(f)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


def _coface_sign(X, t, tp):
    """Sign (-1)^j where j is the position of the added vertex in the coface."""
    extra = [j for j, v in enumerate(tp) if v not in t]
    assert len(extra) == 1
    return (-1) ** extra[0]


def delta_cochain_plain(X, ring, cochain):
    """Simplicial coboundary on plain R-cochains (labels are simplices)."""
    out = {}
    for t, v in cochain.items():
        for tp in X.cofaces(t):
            sign = _coface_sign(X, t, tp)
            out[tp] = ring.add(out.get(tp, ring.zero()),
                               ring.mul(ring.from_int(sign), v))
    return vec_clean(ring, out)


def delta_cochain_local(X, ring, cochain):
    """Coboundary on cochains with local-homology generator coefficients:
    the sheaf map kills cofaces that are not faces of the carrier c."""
    out = {}
    for (t, c), v in cochain.items():
        cset = set(c)
        for tp in X.cofaces(t):
            if not set(tp).issubset(cset):
                continue
            sign = _coface_sign(X, t, tp)
            key = (tp, c)
            out[key] = ring.add(out.get(key, ring.zero()),
                                ring.mul(ring.from_int(sign), v))
    return vec_clean(ring, out)


# -- the two cap products -----------------------------------------------------

def cap_plain(ring, chain, cochain, l):
    """R-coefficient cap: evaluate the cochain on the back face, keep the
    front face."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = {}
    for s, a in chain.items():
        j = len(s) - 1 - l  # k - l
        if j < 0 or (c := cochain.get(s[j:])) is None or is_zero(c):
            continue
        f, x = s[:j + 1], mul(a, c)
        out[f] = x if (y := out.get(f)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


def cap_v1(ring, xi, phi, l):
    """First cap: pair the stalk parts, output a plain R-chain."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = {}
    for (s, b), a in xi.items():
        j = len(s) - 1 - l  # k - l
        if j < 0 or (c := phi.get((s[j:], b))) is None or is_zero(c):
            continue
        f, x = s[:j + 1], mul(a, c)
        out[f] = x if (y := out.get(f)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


def cap_v2(ring, xi, psi, l):
    """Second cap: evaluate the R-cochain on the back face, keep the stalk."""
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = {}
    for (s, b), a in xi.items():
        j = len(s) - 1 - l  # k - l
        if j < 0 or (c := psi.get(s[j:])) is None or is_zero(c):
            continue
        key, x = (s[:j + 1], b), mul(a, c)
        out[key] = x if (y := out.get(key)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


# -- Leibniz rule as an executable identity -----------------------------------

def _subtract(ring, out, chain, a):
    """out -= a * chain, in place and uncleaned, as out += (-a) * chain."""
    add, mul, na = ring.add, ring.mul, ring.neg(a)
    for key, v in chain.items():
        x = mul(na, v)
        out[key] = x if (y := out.get(key)) is None else add(y, x)


def leibniz_defect_v1(X, ring, xi, dxi, phi, dphi, k, l):
    """d(xi cap phi) - (d xi cap phi + (-1)^(k-l) xi cap delta phi); zero dict
    iff the first cap satisfies the Leibniz rule on this input, given
    dxi = d_chain_local(xi) and dphi = delta_cochain_local(phi)."""
    out = d_chain_plain(X, ring, cap_v1(ring, xi, phi, l))
    _subtract(ring, out, cap_v1(ring, dxi, phi, l), ring.one())
    _subtract(ring, out, cap_v1(ring, xi, dphi, l + 1),
              ring.from_int((-1) ** (k - l)))
    return vec_clean(ring, out)


def leibniz_defect_v2(X, ring, xi, dxi, psi, dpsi, k, l):
    """Same defect for the second cap (stalk-carrying output), with
    dpsi = delta_cochain_plain(psi)."""
    out = d_chain_local(X, ring, cap_v2(ring, xi, psi, l))
    _subtract(ring, out, cap_v2(ring, dxi, psi, l), ring.one())
    _subtract(ring, out, cap_v2(ring, xi, dpsi, l + 1),
              ring.from_int((-1) ** (k - l)))
    return vec_clean(ring, out)


# -- relative caps ------------------------------------------------------------

def relative_cap(X, L, ring, xi, cochain, l, variant, support):
    """Cap xi with a cochain relative to the full subcomplex L, as in the
    duality items: variant "v1" is the first cap (cochain labels (t, c)),
    "v2" the second (R-cochain labels t); support "rel" is a cochain vanishing
    on L, whose output carriers lie in the vertex complement L^vc (asserted),
    and "sub" a cochain supported on L, whose output is taken in the relative
    chains of (X, L^vc): generators carried inside L^vc are dropped."""
    if not is_vc_before(X, L):
        raise ValueError("relative caps need the vertex-complement of the "
                         "subcomplex ordered before the subcomplex")
    first = variant == "v1"
    vanishing = support == "rel"
    for key, v in cochain.items():
        t = key[0] if first else key
        if L.contains(t) == vanishing and not ring.is_zero(v):
            raise ValueError(
                f"cochain does not vanish on the subcomplex at {t}" if vanishing
                else f"cochain not supported on the subcomplex at {t}")
    out = {"v1": cap_v1, "v2": cap_v2}[variant](ring, xi, cochain, l)
    vc = L.vertex_complement()
    kept = {key: v for key, v in out.items()
            if vc.contains(key if first else key[0]) == vanishing}
    if vanishing and len(kept) != len(out):
        raise AssertionError("relative cap output escapes the vertex "
                             "complement")
    return kept


# -- orientation change: resorting isomorphisms and the homotopies ------------

def _b_homotopy_plain(ring, u, w, s, b, t, c, coeff):
    """Orientation-swap homotopy on an R-coefficient generator pair (s, t*):
    nonzero only when u, w sit at the split positions, output the extended
    front face.  This pair has no stalk parts; b and c are ignored, so that
    the three homotopies take the same arguments."""
    j = len(s) - len(t)  # k - l
    if len(t) < 2 or s[j] != u or s[j + 1] != w or t != s[j:]:
        return {}
    return {s[:j + 2]: ring.mul(ring.signs[j & 1], coeff)}


def _b_homotopy_v2(ring, u, w, s, b, t, c, coeff):
    """Same homotopy for the second cap: the stalk generator b rides along
    (c is ignored)."""
    out = _b_homotopy_plain(ring, u, w, s, b, t, c, coeff)
    return {(f, b): v for f, v in out.items()} if out else out


def _b_homotopy_v1(ring, u, w, s, b, t, c, coeff):
    """Same homotopy for the first cap: the stalk parts are paired away."""
    return _b_homotopy_plain(ring, u, w, s, b, t, c, coeff) if b == c else {}


def _subtract_resorted(ring, out, res, bt, chain):
    """out -= chain, each label re-sorted through res without a sign: a
    simplex as res[f], a second-cap label (f, b) as (res[f], bt)."""
    sub, neg = ring.sub, ring.neg
    for label, v in chain.items():
        key = res[label][0] if bt is None else (res[label[0]][0], bt)
        out[key] = neg(v) if (y := out.get(key)) is None else sub(y, v)


def swap_incidences(X, ring):
    """What every adjacent swap of X's vertex order reads from X alone: each
    simplex's faces with their signs, and its cofaces tp (also as those
    inside each simplex c), each with the coefficient the homotopy term of
    tp takes: the coface sign times (-1)^(k-l), once for each parity of
    k - l.  No swap changes them, so a sweep builds them once."""
    simplices = list(X.all_simplices())
    cofaces = {t: [(tp, ring.from_int(_coface_sign(X, t, tp)))
                   for tp in X.cofaces(t)]
               for t in simplices}
    faces = {s: [(s[:j] + s[j + 1:], ring.signs[j & 1])
                 for j in range(len(s)) if len(s) > 1]
             for s in simplices}
    # indexed by the parity of k - l first; tuples, as they are smaller
    # than lists and the many empty ones share one object
    parity_cofaces = tuple(
        {t: tuple((tp, ring.mul(sign, cs)) for tp, cs in signed)
         for t, signed in cofaces.items()}
        for sign in ring.signs)
    cofaces_in = tuple(
        {(t, c): tuple(x for x in signed[t] if set(c).issuperset(x[0]))
         for c in simplices for r in range(1, len(c) + 1)
         for t in combinations(c, r)}
        for signed in parity_cofaces)
    return faces, parity_cofaces, cofaces_in


class OrientationSwap:
    """The swap of the adjacent vertices u = X.order[i] and w = X.order[i + 1]:
    Xt is X with u and w exchanged in the vertex order.  Each simplex's tuple
    re-sorted into the order of Xt, with the sign of that permutation, is
    computed once here for all the generator pairs `defect` is asked about;
    its signed faces and cofaces come from `swap_incidences(X, ring)`,
    shared by every swap of X."""

    def __init__(self, X, ring, i, incidences):
        order = list(X.order)
        self.u, self.w = order[i], order[i + 1]
        order[i], order[i + 1] = self.w, self.u
        self.ring, self.Xt = ring, X.with_order(order)
        self.one = ring.one()
        key = self.Xt.pos.__getitem__
        self.resorted = {s: (tuple(sorted(s, key=key)),
                             ring.from_int(perm_sign(s, key)))
                         for s in X.all_simplices()}
        self.faces, self.cofaces, self.cofaces_in = incidences

    def defect(self, s, t, b=None, c=None):
        """Chain-homotopy defect of the swap on one generator pair: zero iff
        the caps before and after the swap agree up to the homotopy.  The pair
        is (s, t*) for the R-coefficient cap when b is None, ((s, b)*, t*) for
        the second cap when c is None, and ((s, b)*, (t, c)) for the first
        cap otherwise.  Stalk orientation signs are dropped: b rides along
        unchanged in the second cap, and the first cap contributes only when
        b == c, where the two signs cancel.  The homotopy outputs are written
        without signs (a tuple denotes the canonical generator of its vertex
        set); the orientation signs appear in the caps' terms instead.  Every
        cap and homotopy term is evaluated; only empty ones are not added."""
        ring, res, one = self.ring, self.resorted, self.one
        u, w = self.u, self.w
        l = len(t) - 1
        parity = (len(s) - 1 - l) % 2
        (st, s_sign), (tt, t_sign) = res[s], res[t]
        # a swap that moves no tuple of the pair repeats the cap's call
        same = st == s and tt == t
        bt = None
        if b is None:
            homotopy, d_chain = _b_homotopy_plain, d_chain_plain
            cofaces = self.cofaces[parity][t]
            old = cap_plain(ring, {s: one}, {t: one}, l)
            new = old if same else cap_plain(ring, {st: one}, {tt: one}, l)
        elif c is None:
            bt = res[b][0]
            homotopy, d_chain = _b_homotopy_v2, d_chain_local
            cofaces = self.cofaces[parity][t]
            old = cap_v2(ring, {(s, b): one}, {t: one}, l)
            new = old if same and bt == b else cap_v2(
                ring, {(st, bt): one}, {tt: one}, l)
        else:
            homotopy, d_chain = _b_homotopy_v1, d_chain_plain
            cofaces = self.cofaces_in[parity][t, c]
            (b2, _), (c2, _) = res[b], res[c]
            old = cap_v1(ring, {(s, b): one}, {(t, c): one}, l)
            new = old if same and b2 == b and c2 == c else cap_v1(
                ring, {(st, b2): one}, {(tt, c2): one}, l)
        add, mul = ring.add, ring.mul
        out = {}
        for label, v in old.items():
            f, sign = res[label if bt is None else label[0]]
            key, x = f if bt is None else (f, bt), mul(sign, v)
            out[key] = x if (y := out.get(key)) is None else add(y, x)
        if new:
            _subtract(ring, out, new, mul(s_sign, t_sign))
        # d~ B(s (x) t*) + B d(s (x) t*), where
        # d(s (x) t*) = ds (x) t* + (-1)^(k-l) s (x) delta t*
        image = homotopy(ring, u, w, s, b, t, c, one)
        if image:
            image = {(res[f][0] if bt is None else (res[f[0]][0], bt)): v
                     for f, v in image.items()}
            _subtract(ring, out, d_chain(self.Xt, ring, image), one)
        for f, sign in self.faces[s]:
            image = homotopy(ring, u, w, f, b, t, c, sign)
            if image:
                _subtract_resorted(ring, out, res, bt, image)
        for tp, coeff in cofaces:
            image = homotopy(ring, u, w, s, b, tp, c, coeff)
            if image:
                _subtract_resorted(ring, out, res, bt, image)
        return vec_clean(ring, out) if out else out
