"""Cap products on local (co)homology generators, their relative variants,
the Leibniz rule as an executable identity, and the orientation-change chain
homotopies.

Conventions.  A chain with local-cohomology coefficients is a dict mapping
generator labels (s, b) -- carrier simplex s of degree k, top simplex b
containing s -- to ring elements; an R-chain maps plain simplices to ring
elements; a cochain with local-homology coefficients maps labels (t, c) with
c containing t.  Both caps evaluate on the back face of the carrier:

  v1: (s, b)* cap (t, c) = [t == back(s)] [b == c] front(s)        (R-chain)
  v2: (s, b)* cap t*     = [t == back(s)] (front(s), b)            (h-chain)

where front/back split s after position k - l.  All formulas read tuple
positions in the canonical vertex order of the complex they are applied in.
"""

from .complexes import perm_sign
from .matrices import vec_add, vec_clean, vec_scale, vec_sub


# -- chain-level differentials ------------------------------------------------

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


# -- Leibniz rule as an executable identity -----------------------------------

def leibniz_defect_v1(X, ring, xi, phi, k, l):
    """d(xi cap phi) - (d xi cap phi + (-1)^(k-l) xi cap delta phi); zero dict
    iff the first cap satisfies the Leibniz rule on this input."""
    sign = ring.from_int((-1) ** (k - l))
    lhs = d_chain_plain(X, ring, cap_v1(ring, xi, phi, l))
    rhs = vec_add(ring, cap_v1(ring, d_chain_local(X, ring, xi), phi, l),
                  vec_scale(ring, sign,
                            cap_v1(ring, xi, delta_cochain_local(X, ring, phi),
                                   l + 1)))
    return vec_sub(ring, lhs, rhs)


def leibniz_defect_v2(X, ring, xi, psi, k, l):
    """Same defect for the second cap (stalk-carrying output)."""
    sign = ring.from_int((-1) ** (k - l))
    lhs = d_chain_local(X, ring, cap_v2(ring, xi, psi, l))
    rhs = vec_add(ring, cap_v2(ring, d_chain_local(X, ring, xi), psi, l),
                  vec_scale(ring, sign,
                            cap_v2(ring, xi, delta_cochain_plain(X, ring, psi),
                                   l + 1)))
    return vec_sub(ring, lhs, rhs)


# -- relative caps ------------------------------------------------------------

def _require_vc_before(X, L):
    from .complexes import is_vc_before
    if not is_vc_before(X, L):
        raise ValueError("relative caps need the vertex-complement of the "
                         "subcomplex ordered before the subcomplex")


def relative_cap_v1(X, L, ring, xi, phi, l):
    """First cap with a cochain vanishing on the subcomplex; lands in chains
    of the vertex complement (asserted)."""
    _require_vc_before(X, L)
    for (t, _), v in phi.items():
        if L.contains(t) and not ring.is_zero(v):
            raise ValueError(f"cochain does not vanish on the subcomplex at {t}")
    out = cap_v1(ring, xi, phi, l)
    vc = L.vertex_complement()
    for f in out:
        if not vc.contains(f):
            raise AssertionError(f"relative cap output {f} escapes the "
                                 "vertex complement")
    return out


def relative_cap_v2(X, L, ring, xi, phi, l):
    """First cap with a cochain of the subcomplex; lands in the relative
    chains of the pair (X, vertex complement): quotient by dropping."""
    _require_vc_before(X, L)
    for (t, _), v in phi.items():
        if not L.contains(t) and not ring.is_zero(v):
            raise ValueError(f"cochain not supported on the subcomplex at {t}")
    out = cap_v1(ring, xi, phi, l)
    vc = L.vertex_complement()
    return vec_clean(ring, {f: v for f, v in out.items() if not vc.contains(f)})


def relative_cap_v3(X, L, ring, xi, psi, l):
    """Second cap with an R-cochain vanishing on the subcomplex; the output
    carriers lie in the vertex complement (asserted)."""
    _require_vc_before(X, L)
    for t, v in psi.items():
        if L.contains(t) and not ring.is_zero(v):
            raise ValueError(f"cochain does not vanish on the subcomplex at {t}")
    out = cap_v2(ring, xi, psi, l)
    vc = L.vertex_complement()
    for (f, _) in out:
        if not vc.contains(f):
            raise AssertionError(f"relative cap carrier {f} escapes the "
                                 "vertex complement")
    return out


def relative_cap_v4(X, L, ring, xi, psi, l):
    """Second cap with an R-cochain of the subcomplex; relative output:
    drop generators carried inside the vertex complement."""
    _require_vc_before(X, L)
    for t, v in psi.items():
        if not L.contains(t) and not ring.is_zero(v):
            raise ValueError(f"cochain not supported on the subcomplex at {t}")
    out = cap_v2(ring, xi, psi, l)
    vc = L.vertex_complement()
    return vec_clean(ring, {key: v for key, v in out.items()
                            if not vc.contains(key[0])})


# -- orientation change: resorting isomorphisms and the homotopies ------------

def resort_plain(X2, ring, chain):
    """Reorientation isomorphism on plain chains/cochains: re-sort each tuple
    into the canonical order of X2, with the permutation sign."""
    out = {}
    for s, v in chain.items():
        t = tuple(sorted(s, key=X2.pos.__getitem__))
        sign = ring.from_int(perm_sign(s, X2.pos.__getitem__))
        out[t] = ring.add(out.get(t, ring.zero()), ring.mul(sign, v))
    return vec_clean(ring, out)


def _canon(X2, chain):
    """Re-sort labels into the canonical order of X2 WITHOUT permutation
    signs: a tuple denotes the canonical generator of its vertex set.  Used
    for the homotopy outputs, whose formulas are written in this convention
    (the orientation signs appear as explicit sg factors in the identity)."""
    def sort_tuple(s):
        return tuple(sorted(s, key=X2.pos.__getitem__))

    out = {}
    for lab, v in chain.items():
        if lab and isinstance(lab[0], tuple):
            new = tuple(sort_tuple(part) for part in lab)
        else:
            new = sort_tuple(lab)
        out[new] = v
    return out


def _carrier_resort(X2, ring, chain):
    """Re-sort generator labels into the order of X2, signing the carrier only
    (the stalk part is canonicalized without a sign)."""
    out = {}
    for (s, b), v in chain.items():
        st = tuple(sorted(s, key=X2.pos.__getitem__))
        bt = tuple(sorted(b, key=X2.pos.__getitem__))
        sign = ring.from_int(perm_sign(s, X2.pos.__getitem__))
        out[(st, bt)] = ring.add(out.get((st, bt), ring.zero()),
                                 ring.mul(sign, v))
    return vec_clean(ring, out)


def _b_homotopy_plain(ring, u, w, s, t, coeff):
    """Orientation-swap homotopy on an R-coefficient generator pair: nonzero
    only when u, w sit at the split positions, output the extended front face."""
    k, l = len(s) - 1, len(t) - 1
    if k - l + 1 > k:
        return {}
    if s[k - l] != u or s[k - l + 1] != w:
        return {}
    if t != s[k - l:]:
        return {}
    return {s[:k - l + 2]: ring.mul(ring.from_int((-1) ** (k - l)), coeff)}


def _b_homotopy_v2(ring, u, w, s, b, t, coeff):
    """Same homotopy for the second cap: the stalk generator rides along."""
    out = _b_homotopy_plain(ring, u, w, s, t, coeff)
    return {(f, b): v for f, v in out.items()}


def _b_homotopy_v1(ring, u, w, s, b, t, c, coeff):
    """Same homotopy for the first cap: the stalk parts are paired away."""
    if b != c:
        return {}
    return _b_homotopy_plain(ring, u, w, s, t, coeff)


def swap_defect_plain(X, Xt, ring, u, w, s, t):
    """Chain-homotopy defect of the orientation swap for the R-coefficient
    cap on the generator pair (s, t*): zero iff the two caps agree up to the
    homotopy.  u, w must be consecutive in the order of X with Xt the order
    swapping them."""
    k, l = len(s) - 1, len(t) - 1
    cap_old = resort_plain(Xt, ring, cap_plain(ring, {s: ring.one()},
                                               {t: ring.one()}, l))
    st = tuple(sorted(s, key=Xt.pos.__getitem__))
    tt = tuple(sorted(t, key=Xt.pos.__getitem__))
    sg = ring.from_int(perm_sign(s, Xt.pos.__getitem__)
                       * perm_sign(t, Xt.pos.__getitem__))
    cap_new = vec_scale(ring, sg, cap_plain(ring, {st: ring.one()},
                                            {tt: ring.one()}, l))
    lhs = vec_sub(ring, cap_old, cap_new)
    # d~ B(s (x) t*)
    b0 = _canon(Xt, _b_homotopy_plain(ring, u, w, s, t, ring.one()))
    rhs = d_chain_plain(Xt, ring, b0)
    # B d(s (x) t*) with d(s (x) t*) = ds (x) t* + (-1)^(k-l) s (x) delta t*
    for i in range(len(s)):
        f = s[:i] + s[i + 1:]
        if not f:
            continue
        term = _b_homotopy_plain(ring, u, w, f, t, ring.from_int((-1) ** i))
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    sign = ring.from_int((-1) ** (k - l))
    for tp in X.cofaces(t):
        cs = ring.mul(sign, ring.from_int(_coface_sign(X, t, tp)))
        term = _b_homotopy_plain(ring, u, w, s, tp, cs)
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    return vec_sub(ring, lhs, rhs)


def swap_defect_v2(X, Xt, ring, u, w, s, b, t):
    """Chain-homotopy defect of the orientation swap for the second cap on the
    generator pair ((s, b)*, t*)."""
    k, l = len(s) - 1, len(t) - 1
    # the stalk generator b rides along unchanged, so its orientation sign is
    # a common unit factor of every term and is dropped throughout
    cap_old = _carrier_resort(Xt, ring, cap_v2(ring, {(s, b): ring.one()},
                                               {t: ring.one()}, l))
    st = tuple(sorted(s, key=Xt.pos.__getitem__))
    bt = tuple(sorted(b, key=Xt.pos.__getitem__))
    tt = tuple(sorted(t, key=Xt.pos.__getitem__))
    sg = ring.from_int(perm_sign(s, Xt.pos.__getitem__)
                       * perm_sign(t, Xt.pos.__getitem__))
    cap_new = vec_scale(ring, sg, cap_v2(ring, {(st, bt): ring.one()},
                                         {tt: ring.one()}, l))
    lhs = vec_sub(ring, cap_old, cap_new)
    b0 = _canon(Xt, _b_homotopy_v2(ring, u, w, s, b, t, ring.one()))
    rhs = d_chain_local(Xt, ring, b0)
    for i in range(len(s)):
        f = s[:i] + s[i + 1:]
        if not f:
            continue
        term = _b_homotopy_v2(ring, u, w, f, b, t, ring.from_int((-1) ** i))
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    sign = ring.from_int((-1) ** (k - l))
    for tp in X.cofaces(t):
        cs = ring.mul(sign, ring.from_int(_coface_sign(X, t, tp)))
        term = _b_homotopy_v2(ring, u, w, s, b, tp, cs)
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    return vec_sub(ring, lhs, rhs)


def swap_defect_v1(X, Xt, ring, u, w, s, b, t, c):
    """Chain-homotopy defect of the orientation swap for the first cap on the
    generator pair ((s, b)*, (t, c)); stalk signs pair away when b == c."""
    k, l = len(s) - 1, len(t) - 1
    cap_old = resort_plain(Xt, ring, cap_v1(ring, {(s, b): ring.one()},
                                            {(t, c): ring.one()}, l))
    st = tuple(sorted(s, key=Xt.pos.__getitem__))
    bt = tuple(sorted(b, key=Xt.pos.__getitem__))
    tt = tuple(sorted(t, key=Xt.pos.__getitem__))
    ct = tuple(sorted(c, key=Xt.pos.__getitem__))
    # contributions need b == c, so the two stalk orientation signs cancel
    sg = ring.from_int(perm_sign(s, Xt.pos.__getitem__)
                       * perm_sign(t, Xt.pos.__getitem__))
    cap_new = vec_scale(ring, sg, cap_v1(ring, {(st, bt): ring.one()},
                                         {(tt, ct): ring.one()}, l))
    lhs = vec_sub(ring, cap_old, cap_new)
    b0 = _canon(Xt, _b_homotopy_v1(ring, u, w, s, b, t, c, ring.one()))
    rhs = d_chain_plain(Xt, ring, b0)
    for i in range(len(s)):
        f = s[:i] + s[i + 1:]
        if not f:
            continue
        term = _b_homotopy_v1(ring, u, w, f, b, t, c, ring.from_int((-1) ** i))
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    sign = ring.from_int((-1) ** (k - l))
    cset = set(c)
    for tp in X.cofaces(t):
        if not set(tp).issubset(cset):
            continue
        cs = ring.mul(sign, ring.from_int(_coface_sign(X, t, tp)))
        term = _b_homotopy_v1(ring, u, w, s, b, tp, c, cs)
        rhs = vec_add(ring, rhs, _canon(Xt, term))
    return vec_sub(ring, lhs, rhs)
