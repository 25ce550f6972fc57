"""The dense elimination lochom ran before its kernel went sparse.

Kept as a test oracle beside `snf_reference`: the sparse kernel in
`lochom.matrices` must choose the same pivots and perform the same
elementary operations, so its diagonals and its four transforms (stored
sparsely, with the zeros that cancel) must equal this reference's in value,
type and order.  `_eliminate` is the old code verbatim: it reads a labelled
`Matrix` through `to_dense`, where the kernel reads `matrices._positions`.
"""

from snf_reference import _gcd_combine


def _eliminate(M, track):
    """The elimination `smith_normal_form` describes: the diagonals, and the
    transforms (U, U^-1, V, V^-1 stored sparsely) only when `track`."""
    ring = M.ring
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one = ring.zero(), ring.one()
    m, n = M.shape
    A = M.to_dense()
    # dicts {index: entry}; entries that cancel stay stored as zeros
    U = [{i: one} for i in range(m)] if track else None
    UinvT = [{i: one} for i in range(m)] if track else None
    VT = [{j: one} for j in range(n)] if track else None
    Vinv = [{j: one} for j in range(n)] if track else None

    def axpy(dst, c, src):
        # dst += c * src for sparse dst and src
        for k, x in src.items():
            if x:
                dst[k] = add(dst.get(k, zero), mul(c, x))

    def combine(X, i, j, a, b, c, d):
        # sparse X_i, X_j <- (a X_i + b X_j, c X_i + d X_j)
        xi, xj = X[i], X[j]
        pairs = [(k, xi.get(k, zero), xj.get(k, zero))
                 for k in xi.keys() | xj.keys()]
        X[i] = {k: add(mul(a, x), mul(b, y)) for k, x, y in pairs}
        X[j] = {k: add(mul(c, x), mul(d, y)) for k, x, y in pairs}

    def row_transform(i, j, a, b, c, d):
        # det 1; U^-1 gets the inverse [[d, -b], [-c, a]] on columns i, j
        ri, rj = A[i], A[j]
        A[i] = [add(mul(a, x), mul(b, y)) for x, y in zip(ri, rj)]
        A[j] = [add(mul(c, x), mul(d, y)) for x, y in zip(ri, rj)]
        if track:
            combine(U, i, j, a, b, c, d)
            combine(UinvT, i, j, d, neg(c), neg(b), a)

    def col_transform(i, j, a, b, c, d):
        # det 1; V^-1 gets the inverse [[d, -c], [-b, a]] on rows i, j
        for row in A[i:]:
            ci, cj = row[i], row[j]
            row[i] = add(mul(a, ci), mul(b, cj))
            row[j] = add(mul(c, ci), mul(d, cj))
        if track:
            combine(VT, i, j, a, b, c, d)
            combine(Vinv, i, j, d, neg(c), neg(b), a)

    int_ring = isinstance(one, int)

    def find_pivot(t):
        # the first nonzero of least abs in row-major order; rows t.. are
        # zero left of column t, and over int rings a 1 or -1 is least
        if int_ring:
            for i in range(t, m):
                row = A[i]
                js = [row.index(u) for u in (1, -1) if u in row]
                if js:
                    return i, min(js)
        best = None
        for i in range(t, m):
            least = min(((abs(x), j) for j, x in enumerate(A[i]) if x),
                        default=None)
            if least and (best is None or least[0] < best[0]):
                best = (least[0], i, least[1])
        return best and best[1:]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = find_pivot(t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            if track:
                U[t], U[pi] = U[pi], U[t]
                UinvT[t], UinvT[pi] = UinvT[pi], UinvT[t]
        if pj != t:
            for row in A[t:]:
                row[t], row[pj] = row[pj], row[t]
            if track:
                VT[t], VT[pj] = VT[pj], VT[t]
                Vinv[t], Vinv[pj] = Vinv[pj], Vinv[t]
        while True:
            # columns where row t is nonzero: row t only changes in a
            # row_transform
            support = None
            for i in range(t + 1, m):
                if not A[i][t]:
                    continue
                q, r = ring.divmod(A[i][t], A[t][t])
                if ring.is_zero(r):
                    # r_i <- r_i - q r_t
                    if support is None:
                        support = [k for k, x in enumerate(A[t]) if x]
                    c, rt, ri = neg(q), A[t], A[i]
                    for k in support:
                        ri[k] = add(ri[k], mul(c, rt[k]))
                    if track:
                        axpy(U[i], c, U[t])
                        axpy(UinvT[t], q, UinvT[i])
                else:
                    a, b, c, d, _ = _gcd_combine(ring, A[t][t], A[i][t])
                    row_transform(t, i, a, b, c, d)
                    support = None
            # rows where column t is nonzero (rows above t are zero there):
            # column t only changes in a col_transform
            support = None
            refilled = False
            for j in range(t + 1, n):
                if not A[t][j]:
                    continue
                q, r = ring.divmod(A[t][j], A[t][t])
                if ring.is_zero(r):
                    # c_j <- c_j - q c_t
                    if support is None:
                        support = [A[k] for k in range(t, m) if A[k][t]]
                    c = neg(q)
                    for row in support:
                        row[j] = add(row[j], mul(c, row[t]))
                    if track:
                        axpy(VT[j], c, VT[t])
                        axpy(Vinv[t], q, Vinv[j])
                else:
                    a, b, c, d, _ = _gcd_combine(ring, A[t][t], A[t][j])
                    col_transform(t, j, a, b, c, d)
                    support = None
                    refilled = True
            if refilled:
                continue
            if ring.is_unit(A[t][t]):
                break
            p = A[t][t]
            offender = next((i for i in range(t + 1, m)
                             if any(x and not ring.divides(p, x)
                                    for x in A[i][t + 1:])), None)
            if offender is None:
                break
            # pull the offending row up so its entries join the pivot's orbit
            row_transform(t, offender, one, one, zero, one)
        u = ring.canonical_unit(A[t][t])
        if not ring.is_zero(ring.sub(u, one)):
            A[t][t] = mul(u, A[t][t])
            if track:
                U[t] = {k: mul(u, x) for k, x in U[t].items()}
                uinv = ring.inv(u)
                UinvT[t] = {k: mul(x, uinv) for k, x in UinvT[t].items()}
        t += 1

    diagonals = [A[i][i] for i in range(t) if not ring.is_zero(A[i][i])]
    return diagonals, ((U, UinvT, VT, Vinv) if track else None)
