"""Sparse exact matrices with labelled bases, Smith normal form, linear solving.

Vectors ("chains") are dicts mapping basis labels to nonzero ring elements.
Matrices act on column vectors: (M v)[r] = sum_c M[r,c] v[c].
"""

from operator import itemgetter

_first = itemgetter(0)


def vec_clean(ring, v):
    if not v:
        return {}
    is_zero = ring.is_zero
    return {k: x for k, x in v.items() if not is_zero(x)}


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


def vec_dot(ring, u, v):
    s = ring.zero()
    for k, x in u.items():
        if k in v:
            s = ring.add(s, ring.mul(x, v[k]))
    return s


class Matrix:
    """Sparse matrix over an exact ring with explicit row/column basis labels."""

    def __init__(self, ring, row_labels, col_labels, entries=None):
        self.ring = ring
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self.row_index = {lbl: i for i, lbl in enumerate(self.row_labels)}
        self.col_index = {lbl: i for i, lbl in enumerate(self.col_labels)}
        if len(self.row_index) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(self.col_index) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        kept = {}
        if entries:
            for (r, c), val in entries.items():
                if r not in self.row_index or c not in self.col_index:
                    raise KeyError(f"label ({r!r}, {c!r}) outside declared bases")
                if not ring.is_zero(val):
                    kept[(r, c)] = val
        self.entries = kept

    # `entries` maps (row, column) to each nonzero.  The column index maps a
    # column label to its nonzeros as (key, row label, value), ordered so
    # that sorting every triple by (key, column position) gives the order of
    # `entries`.  Either one may be built from the other on first read;
    # assigning `entries` drops the index.

    @property
    def entries(self):
        if self._entries is None:
            position = self.col_index
            items = sorted((k, position[c], r, c, v)
                           for c, col in self._columns.items()
                           for k, r, v in col)
            self._entries = {(r, c): v for _, _, r, c, v in items}
        return self._entries

    @entries.setter
    def entries(self, entries):
        self._entries = entries
        self._columns = None

    def _index(self):
        if self._columns is None:
            columns = self._columns = {}
            for k, ((r, c), v) in enumerate(self._entries.items()):
                col = columns.get(c)
                if col is None:
                    columns[c] = [(k, r, v)]
                else:
                    col.append((k, r, v))
        return self._columns

    def _with_columns(self, columns):
        """This matrix, with `columns` (nonzeros only) as its column index and
        `entries` left to be built from it on first read."""
        self._entries = None
        self._columns = columns
        return self

    @property
    def shape(self):
        return (len(self.row_labels), len(self.col_labels))

    @classmethod
    def identity(cls, ring, labels):
        labels = tuple(labels)
        return cls(ring, labels, labels, {(l, l): ring.one() for l in labels})

    @classmethod
    def from_columns(cls, ring, row_labels, col_labels, columns):
        """columns: list of vectors (dicts keyed by row label)."""
        entries = {}
        for j, col in enumerate(columns):
            for r, val in col.items():
                entries[(r, col_labels[j])] = val
        return cls(ring, row_labels, col_labels, entries)

    def to_dense(self):
        z = self.ring.zero()
        out = [[z] * len(self.col_labels) for _ in self.row_labels]
        for (r, c), val in self.entries.items():
            out[self.row_index[r]][self.col_index[c]] = val
        return out

    def column(self, c):
        """Column c as a vector, its keys in the order of `entries`."""
        return {r: v for _, r, v in self._index().get(c, ())}

    def apply(self, vec):
        """Matrix times column vector (dict keyed by col labels).  Only the
        columns of vec's keys are read; their products are summed in the
        order of `entries`, which fixes the key order of the result."""
        ring = self.ring
        mul, add, zero = ring.mul, ring.add, ring.zero()
        columns = self._index()
        hits = [(k, r, mul(v, x)) for c, x in vec.items() if c in columns
                for k, r, v in columns[c]]
        hits.sort(key=_first)
        out = {}
        for _, r, y in hits:
            out[r] = add(out.get(r, zero), y)
        return vec_clean(ring, out)

    def __matmul__(self, other):
        if self.col_labels != other.row_labels:
            raise ValueError("basis mismatch in matrix product")
        ring = self.ring
        by_row = {}
        for (r, c), val in other.entries.items():
            by_row.setdefault(r, []).append((c, val))
        entries = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                entries[key] = ring.add(entries.get(key, ring.zero()), ring.mul(a, b))
        return Matrix(ring, self.row_labels, other.col_labels, entries)

    def __add__(self, other):
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise ValueError("basis mismatch in matrix sum")
        ring = self.ring
        entries = dict(self.entries)
        for key, val in other.entries.items():
            entries[key] = ring.add(entries.get(key, ring.zero()), val)
        return Matrix(ring, self.row_labels, self.col_labels, entries)

    def scale(self, a):
        ring = self.ring
        return Matrix(ring, self.row_labels, self.col_labels,
                      {k: ring.mul(a, v) for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + other.scale(self.ring.from_int(-1))

    def transpose(self):
        return Matrix(self.ring, self.col_labels, self.row_labels,
                      {(c, r): v for (r, c), v in self.entries.items()})

    def is_zero(self):
        return all(self.ring.is_zero(v) for v in self.entries.values())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            return False
        return (self - other).is_zero()

    def __repr__(self):
        return f"Matrix({self.ring.name}, {len(self.row_labels)}x{len(self.col_labels)})"


def hstack(ring, row_labels, mats):
    """Concatenate matrices with common rows; column labels tagged (i, label)."""
    col_labels = []
    entries = {}
    for i, m in enumerate(mats):
        if tuple(m.row_labels) != tuple(row_labels):
            raise ValueError("row basis mismatch in hstack")
        for c in m.col_labels:
            col_labels.append((i, c))
        for (r, c), v in m.entries.items():
            entries[(r, (i, c))] = v
    return Matrix(ring, row_labels, col_labels, entries)


class SNF:
    """Smith normal form data: U * M * V = D with U, V invertible.

    diagonals lists the nonzero invariant factors d_1 | d_2 | ... (canonical
    associates); rank = len(diagonals).  Each transform is given either as a
    `Matrix` or as a function that builds one on its labels (M's rows for U
    and U^-1, its columns for V and V^-1); a function is called the first
    time its transform is read, and only then.  `keep` drops the others, so
    a holder keeps only the transforms it reads.
    """

    def __init__(self, matrix, U, Uinv, V, Vinv, diagonals):
        self.matrix = matrix
        self._transforms = {"U": U, "Uinv": Uinv, "V": V, "Vinv": Vinv}
        self.diagonals = diagonals
        self.rank = len(diagonals)

    def keep(self, *names):
        """Forget every transform not named; reading one then raises
        KeyError."""
        self._transforms = {name: self._transforms[name] for name in names}
        return self

    def _transform(self, name):
        t = self._transforms[name]
        if not isinstance(t, Matrix):
            M = self.matrix
            t = self._transforms[name] = t(
                M.row_labels if name.startswith("U") else M.col_labels)
        return t

    U = property(lambda self: self._transform("U"))
    Uinv = property(lambda self: self._transform("Uinv"))
    V = property(lambda self: self._transform("V"))
    Vinv = property(lambda self: self._transform("Vinv"))


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
    """Return SNF of M with all four transformation matrices, exactly.

    The elimination tracks all four; each becomes a `Matrix` only when a
    caller first reads it (`kernel_basis` reads V, `kernel_coordinates`
    V^-1, `solve` U and V, a cokernel's `project` U and its `lift` U^-1).

    The pivot of step t is the first nonzero of least `abs` in row-major
    order within the trailing block.  It is moved to (t, t); its column and
    row are cleared by elementary operations (the extended-Euclid
    `_gcd_combine` step where it does not divide an entry); while some entry
    of the trailing block is not divisible by it, the first row holding one
    is added to row t and the clearing repeats; row t is then scaled by the
    canonical unit.

    Work whose result is known is skipped, so U, U^-1, V, V^-1 and the
    diagonals equal those of the plain dense elimination entry for entry:

    - a unit pivot divides everything, so the divisibility rescan is skipped;
    - over Z and GF(p) no nonzero has `abs` below 1, so the pivot search
      stops at the first row holding a 1 or -1;
    - an elimination r_i <- r_i - q r_t leaves row t as it is and touches
      row i only where row t is nonzero; U^-1 gets col_t += q col_i only
      where col_i is nonzero; column eliminations, V and V^-1 likewise;
    - the row pass leaves column t clear below the pivot and the column pass
      leaves row t clear, so neither is rescanned: only a gcd step on
      columns refills column t;
    - rows above t are zero in columns t.. and row t is clear but for the
      pivot when it is scaled, so column operations and swaps run over rows
      t.. only, and the scaling multiplies the pivot alone;
    - swaps exchange list entries;
    - the transforms start as the identity and are stored sparsely, U and
      V^-1 by rows, U^-1 and V by columns, so every operation on them runs
      over one stored row and only its nonzeros.

    - a matrix with no entries is not eliminated at all: it has no
      diagonals and all four transforms are identities.

    This relies on canonical entries (ints over Z, `Fraction` over Q,
    residues in [0, p) over GF(p)): then an entry is nonzero exactly when it
    is truthy, and 1*x + 0*y is x itself.

    Each transform's column index is built straight from the elimination's
    sparse rows (keyed by row position, as its `entries` run row by row), so
    `column` and `apply` never build its `entries`.
    """
    ring = M.ring

    def by_rows(labels, rows):
        index = {}
        for i, row in enumerate(rows):
            r = labels[i]
            for j, x in row.items():
                if x:
                    c = labels[j]
                    if c in index:
                        index[c].append((i, r, x))
                    else:
                        index[c] = [(i, r, x)]
        return Matrix(ring, labels, labels)._with_columns(index)

    def by_columns(labels, cols):
        index = {}
        for j, col in enumerate(cols):
            nonzeros = [(i, labels[i], col[i]) for i in sorted(col) if col[i]]
            if nonzeros:
                index[labels[j]] = nonzeros
        return Matrix(ring, labels, labels)._with_columns(index)

    if not M.entries:
        def identity(labels):
            one = ring.one()
            return by_columns(labels, [{i: one} for i in range(len(labels))])

        return SNF(M, identity, identity, identity, identity, [])
    diagonals, (U, UinvT, VT, Vinv) = _eliminate(M, True)
    return SNF(M, lambda rows: by_rows(rows, U),
               lambda rows: by_columns(rows, UinvT),
               lambda cols: by_columns(cols, VT),
               lambda cols: by_rows(cols, Vinv), diagonals)


def _positions(M):
    """M's shape and its entries by position: all that `_eliminate` reads."""
    row, col = M.row_index, M.col_index
    return M.shape, frozenset([(row[r], col[c], v)
                               for (r, c), v in M.entries.items()])


def factored(memo, M):
    """`smith_normal_form(M)` through `memo`, which maps `_positions` to an
    SNF or, from `factors`, to invariant factors (None: no memo).

    A hit is exact: the elimination reads M only by position, and entries
    are canonical for each ring, so the stored diagonals and transforms are
    those M would give, up to labels.  The stored SNF is never read: each
    caller gets a fresh one on M whose transforms are built on M's labels
    from the stored elimination, so its `keep` leaves the stored one whole."""
    if memo is None:
        return smith_normal_form(M)
    key = _positions(M)
    s = memo.get(key)
    if not isinstance(s, SNF):
        s = memo[key] = smith_normal_form(M)
    return SNF(M, diagonals=s.diagonals, **s._transforms)


def factors(memo, ring, key):
    """The invariant factors of a matrix over `ring` whose `_positions` is
    `key`, through `memo` (see `factored`): read off a stored SNF, else
    eliminated from the key, all the elimination reads.  The list is
    shared: read it only."""
    s = memo.get(key)
    if s is None:
        (m, n), entries = key
        s = memo[key] = invariant_factors(Matrix(
            ring, range(m), range(n), {(i, j): v for i, j, v in entries}))
    return s.diagonals if isinstance(s, SNF) else s


def invariant_factors(M):
    """The diagonals of `smith_normal_form(M)`, equal in value, type and
    order, from the same elimination run without U, U^-1, V or V^-1.

    Over a PID these factors fix the cokernel of M up to isomorphism, so a
    caller that needs only ranks and torsion orders skips every transform
    update and every `Matrix` the full form builds.
    """
    return _eliminate(M, False)[0] if M.entries else []


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


def solve(M, b, snf=None):
    """One solution x of M x = b (dict keyed by col labels), or None."""
    ring = M.ring
    s = snf if snf is not None else smith_normal_form(M)
    c = s.U.apply(b)
    z = {}
    for i, d in enumerate(s.diagonals):
        q, r = ring.divmod(c.pop(M.row_labels[i], ring.zero()), d)
        if not ring.is_zero(r):
            return None
        z[M.col_labels[i]] = q
    if not vec_is_zero(ring, c):
        return None
    return vec_clean(ring, s.V.apply(z))


def kernel_basis(M, snf=None):
    """Basis of the kernel of M (saturated over Z), as column vectors."""
    s = snf if snf is not None else smith_normal_form(M)
    out = []
    for j in range(s.rank, len(M.col_labels)):
        out.append(s.V.column(M.col_labels[j]))
    return out


def kernel_coordinates(snf, vec):
    """Coordinates of vec in `kernel_basis(snf.matrix, snf)`, keyed by basis
    position, or None when vec is not in the kernel.  The basis is V's
    columns past the rank, so these are the entries of V^-1 vec past the
    rank, and vec is in the kernel exactly when those before it are zero;
    being unique, they equal what `solve` finds against the basis."""
    index, rank = snf.matrix.col_index, snf.rank
    w = snf.Vinv.apply(vec)
    if any(index[c] < rank for c in w):
        return None
    return {index[c] - rank: x for c, x in w.items()}
