"""Generator-exhaustive verification sweeps for every chain-level identity:
the Leibniz rule for both cap products, the structure-map identities of the
double complex (lift/extension splitting, collapse/augmentation inverses,
closed forms and idempotence of the diagonal shift, the explicit homotopy to
the identity), the collapse suite including the evaluation duality of the
dual collapse, the comparison of the collapse with capping against the
diagonal top cycle, and the orientation-swap homotopies.

Each sweep returns a report dict with a boolean "ok", the number of
generators or pairs checked, and (on failure) a list of witnesses.  All
arithmetic is exact; a defect is a failure exactly when it is a nonzero
vector.
"""

from .caps import (OrientationSwap, cap_v1, cap_v2, d_chain_local,
                   delta_cochain_local, delta_cochain_plain,
                   leibniz_defect_v1, leibniz_defect_v2, swap_incidences)
from .complexes import is_vc_before, reorient_vc_before
from .localhomology import LocalCohomologyCosheaf, LocalContext
from .matrices import vec_add, vec_clean, vec_eq, vec_sub
from .mv import (MVDoubleComplex, c_dual, c_dual_reversed,
                 cap_fundamental_v1, degree_matrices, fundamental_class,
                 pair_dual, project_stalks)
from .sheaves import in_region, region_rel, region_simplices, region_sub


def _pairs_with_tops(X):
    """All generator labels (s, b): every simplex s paired with every simplex
    b containing it, s itself included, not only the top simplices."""
    out = []
    for b in X.all_simplices():
        bset = set(b)
        for s in X.all_simplices():
            if set(s) <= bset:
                out.append((s, b))
    return out


def leibniz_sweep(X, ring, max_witnesses=3):
    """Both cap products satisfy the Leibniz rule on every generator pair;
    each generator's boundary or coboundary is computed once."""
    one = ring.one()
    pairs = _pairs_with_tops(X)
    local, plain = [], []
    for (t, c) in pairs:
        phi = {(t, c): one}
        local.append((t, c, len(t) - 1, phi,
                      delta_cochain_local(X, ring, phi)))
    for t in X.all_simplices():
        psi = {t: one}
        plain.append((t, len(t) - 1, psi, delta_cochain_plain(X, ring, psi)))
    checked = 0
    witnesses = []
    for (s, b) in pairs:
        k = len(s) - 1
        xi = {(s, b): one}
        dxi = d_chain_local(X, ring, xi)
        for t, c, l, phi, dphi in local:
            if l > k:
                continue
            checked += 1
            if leibniz_defect_v1(X, ring, xi, dxi, phi, dphi, k, l):
                witnesses.append(("v1", s, b, t, c))
        for t, l, psi, dpsi in plain:
            if l > k:
                continue
            checked += 1
            if leibniz_defect_v2(X, ring, xi, dxi, psi, dpsi, k, l):
                witnesses.append(("v2", s, b, t))
    return {"checked": checked, "witnesses": witnesses[:max_witnesses],
            "ok": not witnesses}


def mv_identity_sweep(X, L, ring, max_witnesses=3):
    """Structure-map identities of the double complex, generator-exhaustive:
    the total differential squares to zero; the last-vertex lift splits the
    horizontal extension off the zeroth column; collapse/augmentation are
    one-sided inverses with the stated defect; the diagonal shift and all its
    powers match their closed forms; the top power is idempotent, lands in
    the kernel of the zeroth horizontal map, and is homotopic to the identity
    by the explicit homotopy."""
    D = MVDoubleComplex(X, L, ring)
    m = D.power
    checked = 0
    witnesses = []

    for q in range(X.dim + 1):
        for gen in D.diagonal_basis(q):
            sigma, alpha = gen
            l = len(sigma) - 1
            one = {gen: ring.one()}
            checked += 1
            if vec_clean(ring, D.total_d(D.total_d(one))):
                witnesses.append(("d_total^2", gen))
            # splitting of the horizontal extension by the lift
            comb = vec_add(ring, D.lambda_lift(D.horizontal_i(one)),
                           D.horizontal_i(D.lambda_lift(one)))
            if l > 0:
                if not vec_eq(ring, comb, one):
                    witnesses.append(("lift_splits_extension", gen))
            # the powers 1..m of the diagonal shift, each one shift of the last
            powers = [D.diagonal_shift(one)]
            while len(powers) < m:
                powers.append(D.diagonal_shift(powers[-1]))
            # diagonal shift against its closed form
            if not vec_eq(ring, powers[0],
                          D.diagonal_shift_closed(sigma, alpha)):
                witnesses.append(("shift_closed_form", gen))
            # powers against closed forms
            for p in range(1, l + 1):
                if not vec_eq(ring, powers[p - 1],
                              D.diagonal_shift_low_closed(sigma, alpha, p)):
                    witnesses.append((f"shift_power_{p}_low", gen))
            high = D.diagonal_shift_high_closed(sigma, alpha)
            for p in range(l + 1, m + 1):
                if not vec_eq(ring, powers[p - 1], high):
                    witnesses.append((f"shift_power_{p}_high", gen))
            # idempotence of the top power and the kernel property
            top = powers[m - 1]
            if not vec_eq(ring, D.diagonal_shift_power(top, m), top):
                witnesses.append(("top_power_idempotent", gen))
            if vec_clean(ring, D.horizontal_i(top)):
                witnesses.append(("top_power_in_kernel", gen))
            # explicit homotopy to the identity
            hom = vec_add(ring, D.total_d(D.homotopy_to_identity(one)),
                          D.homotopy_to_identity(D.total_d(one)))
            if not vec_eq(ring, vec_sub(ring, one, top), hom):
                witnesses.append(("homotopy_to_identity", gen))
            # zeroth column: augmentation after collapse
            if l == 0:
                lhs = D.epsilon(D.kappa(one))
                rhs = vec_sub(ring, one,
                              D.lambda_lift(D.horizontal_i(one)))
                if not vec_eq(ring, lhs, rhs):
                    witnesses.append(("augment_after_collapse", gen))
    # collapse after augmentation is the identity on relative chains
    lvc = D.L.vertex_complement()
    rel = region_rel(lvc)
    for k in range(X.dim + 1):
        for alpha in region_simplices(X, rel, k):
            checked += 1
            one = {alpha: ring.one()}
            if not vec_eq(ring, D.kappa(D.epsilon(one)), one):
                witnesses.append(("collapse_after_augment", alpha))
    return {"checked": checked, "witnesses": witnesses[:max_witnesses],
            "ok": not witnesses, "power": m}


def collapse_suite(X, L, ring, max_witnesses=3):
    """The collapse map: inverse to the augmentation on the nose one way and
    up to the top shift power the other; equal to collapse-after-shift; a
    chain map (as matrices, against the sign-modified relative boundary);
    and in evaluation duality with the dual collapse."""
    D = MVDoubleComplex(X, L, ring)
    m = D.power
    checked = 0
    witnesses = []
    lvc = D.L.vertex_complement()
    rel = region_rel(lvc)
    for k in range(X.dim + 1):
        for alpha in region_simplices(X, rel, k):
            checked += 1
            one = {alpha: ring.one()}
            if not vec_eq(ring, D.c_map(D.epsilon(one)), one):
                witnesses.append(("collapse_of_augment", alpha))
    for q in range(X.dim + 1):
        for gen in D.diagonal_basis(q):
            checked += 1
            one = {gen: ring.one()}
            back = D.epsilon(D.c_map(one))
            top = D.diagonal_shift_power(one, m)
            if not vec_eq(ring, back, top):
                witnesses.append(("augment_of_collapse", gen))
            if not vec_eq(ring, D.c_map(one), D.kappa(top)):
                witnesses.append(("collapse_is_shifted_projection", gen))
    # chain-map property as matrices
    tot = D.total_complex()
    bar = D.bar_relative_complex()
    cms = degree_matrices(ring, D.c_map, tot, bar, X.dim)
    ems = degree_matrices(ring, D.epsilon, bar, tot, X.dim)
    for q in range(1, X.dim + 1):
        checked += 2
        if not (cms[q - 1] @ tot.differential(q)
                - bar.differential(q) @ cms[q]).is_zero():
            witnesses.append(("collapse_chain_map", q))
        if not (ems[q - 1] @ bar.differential(q)
                - tot.differential(q) @ ems[q]).is_zero():
            witnesses.append(("augment_chain_map", q))
    # evaluation duality of the dual collapse
    for q in range(X.dim + 1):
        for tau in region_simplices(X, rel, q):
            dual = c_dual(D, {tau: ring.one()}, q)
            for gen in D.diagonal_basis(q):
                checked += 1
                one = {gen: ring.one()}
                lhs = pair_dual(ring, dual, one)
                rhs = D.c_map(one).get(tau, ring.zero())
                if not ring.is_zero(ring.sub(lhs, rhs)):
                    witnesses.append(("dual_collapse_pairing", tau, gen))
    return {"checked": checked, "witnesses": witnesses[:max_witnesses],
            "ok": not witnesses}


def collapse_vs_cap(X, L, ring, max_witnesses=3):
    """Collapsing the inclusion of a cochain equals capping against the
    diagonal top cycle, on every generator: in the first form for cochains
    with local-homology tops over L, and in the second (stalk-projected) form
    for relative plain cochains."""
    D = MVDoubleComplex(X, L, ring)
    L = D.L
    n = X.dim
    fund = fundamental_class(X, ring)
    lvc = L.vertex_complement()
    checked = 0
    witnesses = []
    # first form: generators (sigma, top) over L
    for l in range(n + 1):
        for sigma in L.simplices(l):
            sset = set(sigma)
            for b in X.simplices(n):
                if not sset <= set(b):
                    continue
                checked += 1
                phi = {(sigma, b): ring.one()}
                via_collapse = D.c_map(phi)
                closed = cap_fundamental_v1(X, ring, phi, l)
                direct = cap_v1(ring, fund, phi, l)
                if not (vec_eq(ring, via_collapse, closed)
                        and vec_eq(ring, via_collapse, direct)):
                    witnesses.append(("first_form", sigma, b))
    # second form: relative plain cochain generators, projected to stalks
    G = LocalCohomologyCosheaf(LocalContext(X, ring), n)
    rel = region_rel(L)
    sub_lvc = region_sub(lvc)
    for l in range(n + 1):
        for tau in region_simplices(X, rel, l):
            checked += 1
            psi = {tau: ring.one()}
            via_dual = c_dual_reversed(X, lvc, ring, psi, l)
            capped = cap_v2(ring, fund, psi, l)
            kept = {key: v for key, v in capped.items()
                    if in_region(X, sub_lvc, key[0])}
            if not vec_eq(ring, project_stalks(G, via_dual),
                          project_stalks(G, kept)):
                witnesses.append(("second_form", tau))
    return {"checked": checked, "witnesses": witnesses[:max_witnesses],
            "ok": not witnesses}


def swap_sweep(X, ring, max_witnesses=3):
    """Orientation-swap homotopies for every adjacent transposition of the
    vertex order and every generator pair, all three cap variants."""
    checked = 0
    witnesses = []
    pairs = [(s, b, len(s) - 1) for s, b in _pairs_with_tops(X)]
    # per k, the simplices t and pairs (t, c) with dim t <= k, in order
    upto = {k: ([t for t in X.all_simplices() if len(t) <= k + 1],
                [(t, c) for t, c, l in pairs if l <= k])
            for k in range(X.dim + 1)}
    incidences = swap_incidences(X, ring)
    for i in range(len(X.order) - 1):
        swap = OrientationSwap(X, ring, i, incidences)
        u, w, defect = swap.u, swap.w, swap.defect
        for s, b, k in pairs:
            lower, lower_pairs = upto[k]
            for t in lower:
                checked += 2
                if defect(s, t):
                    witnesses.append(("plain", u, w, s, t))
                if defect(s, t, b):
                    witnesses.append(("v2", u, w, s, b, t))
            for t, c in lower_pairs:
                checked += 1
                if defect(s, t, b, c):
                    witnesses.append(("v1", u, w, s, b, t, c))
    return {"checked": checked, "witnesses": witnesses[:max_witnesses],
            "ok": not witnesses}


def full_identity_report(X, L, ring):
    """Everything above on one complex (the swap sweep runs on the complex
    itself; the double-complex sweeps use the given subcomplex, on the order
    `reorient_vc_before` gives when L's vertices are not last, and then the
    report says "reoriented": true)."""
    Xd, Ld = X, L
    if L is not None and not is_vc_before(X, L):
        Xd, Ld = reorient_vc_before(X, L)
    reports = {
        "leibniz": leibniz_sweep(X, ring),
        "double_complex": mv_identity_sweep(Xd, Ld, ring),
        "collapse": collapse_suite(Xd, Ld, ring),
        "collapse_vs_cap": collapse_vs_cap(Xd, Ld, ring),
        "orientation_swap": swap_sweep(X, ring),
    }
    reports["ok"] = all(r["ok"] for r in reports.values()
                        if isinstance(r, dict))
    if Xd is not X:
        reports["reoriented"] = True
    return reports
