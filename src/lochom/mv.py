"""The Mayer-Vietoris double complex of a full subcomplex, its structure maps,
the fundamental class, and the verdict engine for the eight duality
isomorphisms.

For a full subcomplex L of X, the double complex D(L) has, in bidegree (l, k),
one generator (sigma, alpha) for each l-simplex sigma of L and k-simplex alpha
of X containing sigma (the column at sigma is the relative chain complex of
the pair (X, X minus the open star of sigma)).  Chains are dicts mapping such
generators to ring elements; the bidegree of each generator is implicit in the
tuple lengths, so a dict may hold a whole total-complex element.

Sign conventions (all non-standard signs used in this module):
  * the total differential on the (l, k) part is (-1)^(k-l) * vertical +
    horizontal (the extra (-1)^k, on top of the usual (-1)^l, matches the sign
    in the Leibniz rule of the cap products);
  * the collapse map lands in relative chains equipped with the modified
    boundary (-1)^k * d (`bar_relative_complex`), compensating the same twist;
  * the last-vertex lift carries the sign (-1)^l;
  * capping a degree-l cochain into degree n - l commutes with the
    differentials up to the global sign (-1)^(n-l).
The structure maps are written as the chain formulas of `caps` are, for the
identity sweeps that call them once or more per generator.
"""

from .caps import relative_cap
from .complexes import Subcomplex, is_vc_before, reorient_vc_before
from .homology import ChainComplex, induced_matrix, is_isomorphism
from .localhomology import (LocalCohomologyCosheaf, LocalContext,
                            LocalHomologySheaf, local_cm_check)
from .matrices import Matrix, vec_add, vec_clean, vec_sub
from .sheaves import (DUALITY_ITEMS, cosheaf_chain_complex, region_rel,
                      region_sub, sheaf_cochain_complex,
                      simplicial_chain_complex, simplicial_cochain_complex)


class MVDoubleComplex:
    """Double complex D(L) with vertical boundary, horizontal coboundary in
    the subcomplex direction, and the structure maps used to collapse it onto
    the relative chains of (X, L^vc)."""

    def __init__(self, X, L, ring):
        if L is None:
            L = Subcomplex(X, X.order)
        if not is_vc_before(X, L):
            raise ValueError("the double complex needs the vertex complement "
                             "of the subcomplex ordered before the subcomplex")
        self.X = X
        self.L = L
        self.ring = ring
        # smallest power of the diagonal shift that projects onto the kernel
        # of the degree-0 horizontal map
        self.power = X.dim + 1

    # -- bases ---------------------------------------------------------------
    def generators(self, l, k):
        out = []
        for sigma in self.L.simplices(l):
            s = set(sigma)
            for alpha in self.X.simplices(k):
                if s.issubset(alpha):
                    out.append((sigma, alpha))
        return tuple(out)

    def diagonal_basis(self, q):
        out = []
        for l in range(self.X.dim + 1):
            out.extend(self.generators(l, l + q))
        return tuple(out)

    # -- differentials -------------------------------------------------------
    def vertical_d(self, chain):
        """Summand-wise boundary: drop faces of the carrier that no longer
        contain the subcomplex simplex."""
        ring = self.ring
        add, mul, signs = ring.add, ring.mul, ring.signs
        out = {}
        for (sigma, alpha), v in chain.items():
            s = set(sigma)
            for j in range(len(alpha)):
                f = alpha[:j] + alpha[j + 1:]
                if s.issubset(f):
                    key, x = (sigma, f), mul(signs[j & 1], v)
                    out[key] = x if (y := out.get(key)) is None else add(y, x)
        return vec_clean(ring, out) if out else out

    def horizontal_i(self, chain):
        """Coboundary in the subcomplex direction: extend sigma by one vertex
        of the carrier, with the sign of the position of the new vertex."""
        ring = self.ring
        add, mul, signs = ring.add, ring.mul, ring.signs
        contains, pos = self.L.contains, self.X.pos.__getitem__
        out = {}
        for (sigma, alpha), v in chain.items():
            s = set(sigma)
            for u in alpha:
                if u not in s and contains((u,)):
                    bigger = tuple(sorted(sigma + (u,), key=pos))
                    j = bigger.index(u)
                    key, x = (bigger, alpha), mul(signs[j & 1], v)
                    out[key] = x if (y := out.get(key)) is None else add(y, x)
        return vec_clean(ring, out) if out else out

    def total_d(self, chain):
        """(-1)^(k-l) * vertical + horizontal."""
        ring = self.ring
        mul, signs = ring.mul, ring.signs
        twisted = {(s, a): mul(signs[(len(a) - len(s)) & 1], v)
                   for (s, a), v in chain.items()}
        return vec_add(ring, self.vertical_d(twisted), self.horizontal_i(chain))

    # -- splitting maps ------------------------------------------------------
    def lambda_lift(self, chain):
        """Last-vertex lift: remove the last vertex of sigma when it is also
        the last vertex of the carrier, with sign (-1)^l; zero on the zeroth
        column."""
        ring = self.ring
        add, mul, signs = ring.add, ring.mul, ring.signs
        out = {}
        for (sigma, alpha), v in chain.items():
            l = len(sigma) - 1
            if l != 0 and sigma[-1] == alpha[-1]:
                key, x = (sigma[:-1], alpha), mul(signs[l & 1], v)
                out[key] = x if (y := out.get(key)) is None else add(y, x)
        return vec_clean(ring, out) if out else out

    def kappa(self, chain):
        """Projection of the zeroth column onto relative chains: keep a
        generator only when its vertex is the last vertex of the carrier."""
        ring = self.ring
        add = ring.add
        out = {}
        for (sigma, alpha), v in chain.items():
            if len(sigma) == 1 and sigma[0] == alpha[-1]:
                out[alpha] = v if (y := out.get(alpha)) is None else add(y, v)
        return vec_clean(ring, out) if out else out

    def epsilon(self, chain):
        """Augmentation of a relative chain of (X, L^vc) into the zeroth
        column: one component for every vertex of the carrier lying in L."""
        ring = self.ring
        add, contains = ring.add, self.L.contains
        out = {}
        for alpha, v in chain.items():
            for u in alpha:
                if contains((u,)):
                    key = ((u,), alpha)
                    out[key] = v if (y := out.get(key)) is None else add(y, v)
        return vec_clean(ring, out) if out else out

    # -- the diagonal shift and its powers -----------------------------------
    def diagonal_shift(self, chain):
        """id - lift.totald - totald.lift; chain homotopic to the identity by
        construction and moves bidegree (l, k) to (l-1, k-1) for l > 0."""
        ring = self.ring
        out = vec_sub(ring, chain, self.lambda_lift(self.total_d(chain)))
        return vec_sub(ring, out, self.total_d(self.lambda_lift(chain)))

    def diagonal_shift_power(self, chain, m):
        for _ in range(m):
            chain = self.diagonal_shift(chain)
        return chain

    def diagonal_shift_closed(self, sigma, alpha):
        """Closed form of the diagonal shift on a generator."""
        ring = self.ring
        k, l = len(alpha) - 1, len(sigma) - 1
        if l > 0:
            coeff = ring.zero()
            if sigma[-1] == alpha[-1]:
                coeff = ring.add(coeff, ring.one())
            if k >= 1 and sigma[-1] == alpha[-2]:
                coeff = ring.sub(coeff, ring.one())
            if ring.is_zero(coeff):
                return {}
            return {(sigma[:-1], alpha[:-1]): coeff}
        if sigma[0] != alpha[-1]:
            return {}
        return {((u,), alpha): ring.one()
                for u in alpha if self.L.contains((u,))}

    def diagonal_shift_low_closed(self, sigma, alpha, m):
        """Closed form of the m-th power for 1 <= m <= l: shift both back
        faces off, scaled by the incidence of the back face of sigma in the
        boundary of the back face of alpha."""
        ring = self.ring
        k, l = len(alpha) - 1, len(sigma) - 1
        if not 1 <= m <= l:
            raise ValueError("closed form requires 1 <= m <= column degree")
        back_s = sigma[l - m + 1:]
        back_a = alpha[k - m:]
        coeff = ring.zero()
        for j in range(len(back_a)):
            if back_a[:j] + back_a[j + 1:] == back_s:
                coeff = ring.add(coeff, ring.from_int((-1) ** j))
        if ring.is_zero(coeff):
            return {}
        return {(sigma[:l - m + 1], alpha[:k - m + 1]): coeff}

    def diagonal_shift_high_closed(self, sigma, alpha):
        """Closed form of the m-th power for any m > l: the augmentation of
        the front face when sigma is the back face, zero otherwise."""
        ring = self.ring
        k, l = len(alpha) - 1, len(sigma) - 1
        if sigma != alpha[k - l:]:
            return {}
        front = alpha[:k - l + 1]
        return {((u,), front): ring.one()
                for u in front if self.L.contains((u,))}

    # -- collapse ------------------------------------------------------------
    def c_map(self, chain):
        """Collapse of the total complex onto relative chains of (X, L^vc):
        keep the front face of the carrier when sigma is its back face."""
        ring = self.ring
        add = ring.add
        out = {}
        for (sigma, alpha), v in chain.items():
            j = len(alpha) - len(sigma)  # k - l
            if sigma == alpha[j:]:
                front = alpha[:j + 1]
                out[front] = v if (y := out.get(front)) is None else add(y, v)
        return vec_clean(ring, out) if out else out

    def homotopy_to_identity(self, chain):
        """H with id - shift^power = totald.H + H.totald: the lift summed over
        all lower powers of the diagonal shift."""
        ring = self.ring
        out = {}
        cur = chain
        for _ in range(self.power):
            out = vec_add(ring, out, self.lambda_lift(cur))
            cur = self.diagonal_shift(cur)
        return out

    # -- packaged chain complexes -------------------------------------------
    def total_complex(self):
        """The total complex as a ChainComplex graded by k - l."""
        ring = self.ring
        spaces = {q: self.diagonal_basis(q) for q in range(self.X.dim + 1)}
        diffs = {}
        for q in range(1, self.X.dim + 1):
            src = spaces.get(q, ())
            tgt = spaces.get(q - 1, ())
            cols = [self.total_d({gen: ring.one()}) for gen in src]
            if src:
                diffs[q] = Matrix.from_columns(ring, tgt, src, cols)
        return ChainComplex(ring, spaces, diffs, shift=-1)

    def bar_relative_complex(self):
        """Relative chains of (X, L^vc) with the modified boundary (-1)^k d,
        the codomain of the collapse map."""
        ring = self.ring
        lvc = self.L.vertex_complement()
        cx = simplicial_chain_complex(self.X, ring, region_rel(lvc))
        diffs = {}
        for k, d in cx.diffs.items():
            diffs[k] = d.scale(ring.from_int((-1) ** k))
        return ChainComplex(ring, cx.spaces, diffs, shift=-1)


def degree_matrices(ring, gen_map, src, tgt, top):
    """A generator map as degree-wise matrices src -> tgt in degrees 0..top."""
    out = {}
    for q in range(top + 1):
        cols = [gen_map({gen: ring.one()}) for gen in src.basis(q)]
        out[q] = Matrix.from_columns(ring, tgt.basis(q), src.basis(q), cols)
    return out


# -- the dual double complex --------------------------------------------------

def c_dual(D, cochain, q):
    """Evaluation dual of the collapse map on a relative cochain of degree q:
    for each carrier alpha whose back face past position q lies in L, emit the
    dual generator (back face, alpha) weighted by the cochain value on the
    front face.  The output pairs against double-complex chains exactly as
    `cochain` pairs against collapsed chains."""
    ring = D.ring
    out = {}
    for k in range(q, D.X.dim + 1):
        for alpha in D.X.simplices(k):
            back = alpha[q:]
            if not D.L.contains(back):
                continue
            v = cochain.get(alpha[:q + 1])
            if v is None or ring.is_zero(v):
                continue
            key = (back, alpha)
            out[key] = ring.add(out.get(key, ring.zero()), v)
    return vec_clean(ring, out)


def pair_dual(ring, dual_element, chain):
    """Evaluation pairing between a dual-complex element and a chain of D."""
    total = ring.zero()
    for gen, v in chain.items():
        w = dual_element.get(gen)
        if w is not None:
            total = ring.add(total, ring.mul(w, v))
    return total


def c_dual_reversed(X, Lvc, ring, psi, l):
    """Companion of `c_dual` for the orientation that puts L^vc first: the
    roles of front and back faces swap.  psi is a degree-l cochain vanishing
    on L; the output is a dual-complex element over L^vc with components
    (front face, alpha) weighted by psi on the back face."""
    n = X.dim
    out = {}
    for alpha in X.simplices(n):
        front = alpha[:n - l + 1]
        if not Lvc.contains(front):
            continue
        v = psi.get(alpha[n - l:])
        if v is None or ring.is_zero(v):
            continue
        key = (front, alpha)
        out[key] = ring.add(out.get(key, ring.zero()), v)
    return vec_clean(ring, out)


# -- fundamental class and capping with it ------------------------------------

def fundamental_class(X, ring):
    """The diagonal top-degree cycle: every top simplex paired with its own
    dual stalk generator.  Requires a pure complex."""
    n = X.dim
    if any(len(m) - 1 != n for m in X.maximal_simplices()):
        raise ValueError("fundamental class needs a pure complex")
    return {(alpha, alpha): ring.one() for alpha in X.simplices(n)}


def cap_fundamental_v1(X, ring, phi, l):
    """Closed form of capping the fundamental class with a local-homology
    valued cochain: evaluate on the back face of each top simplex, keep the
    front face."""
    n = X.dim
    out = {}
    for alpha in X.simplices(n):
        v = phi.get((alpha[n - l:], alpha))
        if v is None or ring.is_zero(v):
            continue
        front = alpha[:n - l + 1]
        out[front] = ring.add(out.get(front, ring.zero()), v)
    return vec_clean(ring, out)


def project_stalks(G, chain):
    """Send a chain with raw top-dual labels (carrier, top simplex) to the
    cosheaf basis (carrier, stalk index) via the cokernel presentations."""
    ring = G.ring
    out = {}
    for (f, b), v in chain.items():
        coords = G.project(f, {(f, b): ring.one()})
        for j, c in enumerate(coords):
            if ring.is_zero(c):
                continue
            key = (f, j)
            out[key] = ring.add(out.get(key, ring.zero()), ring.mul(v, c))
    return vec_clean(ring, out)


# -- the eight duality isomorphisms -------------------------------------------

# CM hypothesis kind -> the name a report gives it
HYPOTHESIS_NAMES = {
    "at_L": "locally Cohen-Macaulay at the subcomplex",
    "at_Lvc": "locally Cohen-Macaulay at the vertex complement",
    "global": "locally Cohen-Macaulay",
}


def duality_map_matrices(ctx, L, item):
    """Source complex, target complex, and the degree-l matrices of capping
    with the fundamental class, for one of the eight duality items.  The
    source is a cochain complex in degrees l, the target a chain complex in
    degrees n - l.  Each column is one `relative_cap` call with the part of
    the class whose back face alpha[n-l:] is the column's simplex, grouped
    once per degree in the class's order: the other generators add nothing,
    so values, value types and key order are those of the whole class."""
    X, ring = ctx.X, ctx.ring
    variant, src_region, tgt_region, _, _, _ = DUALITY_ITEMS[item]
    n = X.dim
    Lvc = L.vertex_complement()
    fund = fundamental_class(X, ring)
    src_reg = region_sub(L) if src_region == "sub" else region_rel(L)
    tgt_reg = region_sub(Lvc) if tgt_region == "sub" else region_rel(Lvc)
    if variant == "v1":
        F = LocalHomologySheaf(ctx, n)
        src = sheaf_cochain_complex(F, src_reg)
        tgt = simplicial_chain_complex(X, ring, tgt_reg)

        def image(label, part):
            s, lab = label
            return relative_cap(X, L, ring, part, F.cycle(s, lab), len(s) - 1,
                                variant, src_region)
    else:
        G = LocalCohomologyCosheaf(ctx, n)
        src = simplicial_cochain_complex(X, ring, src_reg)
        tgt = cosheaf_chain_complex(G, tgt_reg)

        def image(label, part):
            return project_stalks(G, relative_cap(
                X, L, ring, part, {label: ring.one()}, len(label) - 1,
                variant, src_region))

    matrices = {}
    for l in range(0, n + 1):
        by_back = {}
        for key, v in fund.items():
            by_back.setdefault(key[0][n - l:], {})[key] = v
        cols = [image(label, by_back.get(
                    label[0] if variant == "v1" else label, {}))
                for label in src.basis(l)]
        matrices[l] = Matrix.from_columns(ring, tgt.basis(n - l),
                                          src.basis(l), cols)
    return src, tgt, matrices


def _chain_level_commutes(src, tgt, matrices, n, ring):
    """d_target . M_l == (-1)^(n-l) M_(l+1) . delta_source for every l."""
    for l in range(0, n + 1):
        m = matrices[l]
        lhs = tgt.differential(n - l) @ m
        m_next = matrices.get(l + 1)
        if m_next is None:
            m_next = Matrix(ring, tgt.basis(n - l - 1), src.basis(l + 1))
        rhs = (m_next @ src.differential(l)).scale(
            ring.from_int((-1) ** (n - l)))
        if not (lhs - rhs).is_zero():
            return False
    return True


def verify_duality(X, L, item, ring):
    """Duality report for one of the eight items: check the Cohen-Macaulay
    hypothesis (refusing with witnesses when it fails), build the cap with
    the fundamental class degree-wise, certify the chain-level commutation,
    and test the induced map on homology for bijectivity in every degree.  A
    degree where the cap induces no map (it sends a cycle to a non-cycle, or
    is not well defined on a torsion generator) reports "iso": false and the
    reason."""
    if item not in DUALITY_ITEMS:
        raise ValueError(f"unknown duality item {item!r}; "
                         f"expected one of {sorted(DUALITY_ITEMS)}")
    if X.dim < 0:
        raise ValueError("complex has no simplices")
    if L is None:
        L = Subcomplex(X, X.order)
    reoriented = False
    if not is_vc_before(X, L):
        X, L = reorient_vc_before(X, L)
        reoriented = True
    n = X.dim
    variant, _, _, hyp_kind, src_support, tgt_support = DUALITY_ITEMS[item]
    report = {
        "item": item,
        "ring": ring.name,
        "n": n,
        "variant": variant,
        "source_support": src_support,
        "target_support": tgt_support,
        "reoriented": reoriented,
        "refused": False,
        "verdict": False,
        "degrees": {},
    }
    if any(len(m) - 1 != n for m in X.maximal_simplices()):
        report["refused"] = True
        report["hypothesis"] = {"name": "pure top dimension", "holds": False,
                                "witnesses": [m for m in X.maximal_simplices()
                                              if len(m) - 1 != n]}
        return report
    ctx = LocalContext(X, ring)
    cm = local_cm_check(
        ctx, L.vertex_complement() if hyp_kind == "at_Lvc" else L, n)
    holds = cm["locally_cm" if hyp_kind == "global" else "locally_cm_at_L"]
    report["hypothesis"] = {"name": HYPOTHESIS_NAMES[hyp_kind],
                            "holds": holds, "witnesses": cm["witnesses"]}
    if not holds:
        report["refused"] = True
        return report
    src, tgt, matrices = duality_map_matrices(ctx, L, item)
    del ctx  # frees the stalks before the homology below
    report["chain_level_commutes"] = _chain_level_commutes(
        src, tgt, matrices, n, ring)
    all_iso = True
    for l in range(0, n + 1):
        src_h = src.homology(l)
        tgt_h = tgt.homology(n - l)
        if src_h.is_trivial() and tgt_h.is_trivial():
            report["degrees"][l] = {
                "source": src_h.rank_summary, "target": tgt_h.rank_summary,
                "iso": True, "matrix": []}
            continue
        degree = report["degrees"][l] = {
            "source": src_h.rank_summary, "target": tgt_h.rank_summary}
        try:
            m = induced_matrix(src_h, tgt_h, matrices[l].apply)
        except ValueError as exc:
            degree.update(iso=False, reason=str(exc))
            all_iso = False
            continue
        iso = is_isomorphism(src_h, tgt_h, m)
        degree.update(iso=iso, matrix=m.to_dense())
        all_iso = all_iso and iso
    report["verdict"] = all_iso and report["chain_level_commutes"]
    return report
