"""The dense Smith normal form lochom used before its kernel skipped no-op work.

Kept as a test oracle: the kernel in `lochom.matrices` must choose the same
pivots and perform the same elementary operations, so its U, U^-1, V, V^-1
and diagonals must equal this reference's entry for entry.  The elimination
is the old code verbatim; `from_dense` is the old `Matrix.from_dense`, which
the kernel no longer needs.  The result holds the four transforms as built
matrices, under the attribute names of `lochom.matrices.SNF`.

`lochom.matrices.SNF` holds no transform, only the logs of its row and
column operations.  `transforms` rebuilds U, U^-1, V and V^-1 from them in
the shape of this reference's result, so every test reads them one way.
"""

from types import SimpleNamespace

from lochom.matrices import Matrix, _replay

# name: (on M's rows, inverse, transposed), the `matrices._replay` mode that
# gives the identity's rows X the transform's rows or columns: U X gives U's
# rows, (U^-1)^T X U^-1's columns, V^T X V's columns and V^-1 X V^-1's rows
# (a column log holds the transposes of V's operations)
MODES = {"U": (True, False, False),
         "Uinv": (True, True, True),
         "V": (False, False, False),
         "Vinv": (False, True, True)}


def replayed(ring, shape, log, col_log):
    """U's rows, U^-1's columns, V's columns and V^-1's rows of a matrix of
    `shape`, as the sparse rows the logs leave, cancelled entries kept as
    zeros (as the dense kernel's sparse rows keep them)."""
    out = []
    for on_rows, inverse, transposed in MODES.values():
        size = shape[0] if on_rows else shape[1]
        out.append(_replay(ring, log if on_rows else col_log,
                           [{i: ring.one()} for i in range(size)],
                           inverse, transposed))
    return out


def transforms(snf):
    """`snf` as `smith_normal_form` here returns it: U, U^-1, V and V^-1
    rebuilt from its logs as `Matrix`es, nonzeros only, entries row by
    row."""
    M = snf.matrix
    ring = M.ring
    built = {}
    for (name, (on_rows, _, transposed)), X in zip(
            MODES.items(), replayed(ring, M.shape, snf.log, snf.col_log)):
        labels = M.row_labels if on_rows else M.col_labels
        # X holds the transform's rows for U and V^-1, its columns else
        by_rows = on_rows != transposed
        cells = sorted((((i, j) if by_rows else (j, i)), x)
                       for i, row in enumerate(X) for j, x in row.items())
        built[name] = Matrix(ring, labels, labels, {
            (labels[r], labels[c]): x for (r, c), x in cells})
    return SimpleNamespace(matrix=M, diagonals=snf.diagonals, rank=snf.rank,
                           **built)


def from_dense(ring, row_labels, col_labels, rows):
    row_labels = tuple(row_labels)
    col_labels = tuple(col_labels)
    entries = {}
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            val = val if not isinstance(val, int) else ring.from_int(val)
            if not ring.is_zero(val):
                entries[(row_labels[i], col_labels[j])] = val
    return Matrix(ring, row_labels, col_labels, entries)


def _gcd_combine(ring, x, y):
    """For x != 0: return (a, b, c, d, g) with a*x + b*y = g, det [[a,b],[c,d]] = 1
    and c*x + d*y = 0."""
    # extended Euclid in the ring (terminates: Euclidean)
    r0, r1 = x, y
    a0, a1 = ring.one(), ring.zero()
    b0, b1 = ring.zero(), ring.one()
    while not ring.is_zero(r1):
        q, r = ring.divmod(r0, r1)
        r0, r1 = r1, r
        a0, a1 = a1, ring.sub(a0, ring.mul(q, a1))
        b0, b1 = b1, ring.sub(b0, ring.mul(q, b1))
    g = r0
    # g = a0*x + b0*y ; second row (-y/g, x/g) kills the pair with det 1
    c = ring.neg(ring.div(y, g))
    d = ring.div(x, g)
    return a0, b0, c, d, g


def smith_normal_form(M):
    """Return SNF of M with all four transformation matrices, exactly."""
    ring = M.ring
    m, n = M.shape
    A = M.to_dense()
    idm = [[ring.one() if i == j else ring.zero() for j in range(m)] for i in range(m)]
    idn = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    U = [row[:] for row in idm]
    Uinv = [row[:] for row in idm]
    V = [row[:] for row in idn]
    Vinv = [row[:] for row in idn]

    def row_transform(i, j, a, b, c, d, det):
        # rows i,j of A and U <- (a ri + b rj, c ri + d rj); Uinv gets inverse cols
        for X in (A, U):
            ri, rj = X[i], X[j]
            X[i] = [ring.add(ring.mul(a, x), ring.mul(b, y)) for x, y in zip(ri, rj)]
            X[j] = [ring.add(ring.mul(c, x), ring.mul(d, y)) for x, y in zip(ri, rj)]
        dinv = ring.inv(det)
        tii, tij = ring.mul(d, dinv), ring.mul(ring.neg(b), dinv)
        tji, tjj = ring.mul(ring.neg(c), dinv), ring.mul(a, dinv)
        for row in Uinv:
            ci, cj = row[i], row[j]
            row[i] = ring.add(ring.mul(ci, tii), ring.mul(cj, tji))
            row[j] = ring.add(ring.mul(ci, tij), ring.mul(cj, tjj))

    def col_transform(i, j, a, b, c, d, det):
        # cols i,j of A and V <- combos; Vinv gets inverse rows
        for X in (A, V):
            for row in X:
                ci, cj = row[i], row[j]
                row[i] = ring.add(ring.mul(a, ci), ring.mul(b, cj))
                row[j] = ring.add(ring.mul(c, ci), ring.mul(d, cj))
        # the column op is V <- V*T with T = [[a,c],[b,d]] on the (i,j) block,
        # so Vinv picks up Tinv = [[d,-c],[-b,a]]/det on the left
        dinv = ring.inv(det)
        tii, tij = ring.mul(d, dinv), ring.mul(ring.neg(c), dinv)
        tji, tjj = ring.mul(ring.neg(b), dinv), ring.mul(a, dinv)
        ri, rj = Vinv[i], Vinv[j]
        Vinv[i] = [ring.add(ring.mul(tii, x), ring.mul(tij, y)) for x, y in zip(ri, rj)]
        Vinv[j] = [ring.add(ring.mul(tji, x), ring.mul(tjj, y)) for x, y in zip(ri, rj)]

    def swap_rows(i, j):
        if i != j:
            row_transform(i, j, ring.zero(), ring.one(), ring.one(), ring.zero(),
                          ring.from_int(-1))

    def swap_cols(i, j):
        if i != j:
            col_transform(i, j, ring.zero(), ring.one(), ring.one(), ring.zero(),
                          ring.from_int(-1))

    def size(x):
        # pivot preference: small magnitude speeds integer SNF; fields don't care
        try:
            return abs(x)
        except TypeError:
            return 1

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if not ring.is_zero(A[i][j]):
                    if pivot is None or size(A[i][j]) < size(A[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if ring.is_zero(A[i][t]):
                    continue
                q, r = ring.divmod(A[i][t], A[t][t])
                if ring.is_zero(r):
                    row_transform(t, i, ring.one(), ring.zero(),
                                  ring.neg(q), ring.one(), ring.one())
                else:
                    a, b, c, d, _ = _gcd_combine(ring, A[t][t], A[i][t])
                    row_transform(t, i, a, b, c, d, ring.one())
            for j in range(t + 1, n):
                if ring.is_zero(A[t][j]):
                    continue
                q, r = ring.divmod(A[t][j], A[t][t])
                if ring.is_zero(r):
                    col_transform(t, j, ring.one(), ring.zero(),
                                  ring.neg(q), ring.one(), ring.one())
                else:
                    a, b, c, d, _ = _gcd_combine(ring, A[t][t], A[t][j])
                    col_transform(t, j, a, b, c, d, ring.one())
            col_clear = all(ring.is_zero(A[i][t]) for i in range(t + 1, m))
            row_clear = all(ring.is_zero(A[t][j]) for j in range(t + 1, n))
            if not (col_clear and row_clear):
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not ring.divides(A[t][t], A[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull the offending row up so its entries join the pivot's orbit
            row_transform(t, offender, ring.one(), ring.one(),
                          ring.zero(), ring.one(), ring.one())
        u = ring.canonical_unit(A[t][t])
        if not ring.is_zero(ring.sub(u, ring.one())):
            # scale row t by the unit u (1x1 row transform)
            A[t] = [ring.mul(u, x) for x in A[t]]
            U[t] = [ring.mul(u, x) for x in U[t]]
            uinv = ring.inv(u)
            for row in Uinv:
                row[t] = ring.mul(row[t], uinv)
        t += 1

    diagonals = [A[i][i] for i in range(t) if not ring.is_zero(A[i][i])]
    rows, cols = M.row_labels, M.col_labels
    Um = from_dense(ring, rows, rows, U)
    Uim = from_dense(ring, rows, rows, Uinv)
    Vm = from_dense(ring, cols, cols, V)
    Vim = from_dense(ring, cols, cols, Vinv)
    return SimpleNamespace(matrix=M, U=Um, Uinv=Uim, V=Vm, Vinv=Vim,
                           diagonals=diagonals, rank=len(diagonals))
