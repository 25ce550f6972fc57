"""Sparse exact matrices with labelled bases, Smith normal form, linear solving.

Vectors ("chains") are dicts mapping basis labels to nonzero ring elements.
Matrices act on column vectors: (M v)[r] = sum_c M[r,c] v[c].
"""

from functools import cached_property
from operator import itemgetter

_first = itemgetter(0)


def vec_clean(ring, v):
    if not v:
        return {}
    is_zero = ring.is_zero
    return {k: x for k, x in v.items() if not is_zero(x)}


def vec_add(ring, u, v):
    add, out = ring.add, dict(u)
    for k, x in v.items():
        out[k] = x if (y := out.get(k)) is None else add(y, x)
    return vec_clean(ring, out) if out else out


def vec_sub(ring, u, v):
    sub, neg, out = ring.sub, ring.neg, dict(u)
    for k, x in v.items():
        out[k] = neg(x) if (y := out.get(k)) is None else sub(y, x)
    return vec_clean(ring, out) if out else out


def vec_eq(ring, u, v):
    """Whether u - v is zero, read term by term without building it."""
    is_zero, sub = ring.is_zero, ring.sub
    for k, x in u.items():
        if not is_zero(x if (y := v.get(k)) is None else sub(x, y)):
            return False
    return all(k in u or is_zero(y) for k, y in v.items())


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

    # `entries` maps (row, column) to each nonzero.  The column index, built
    # from it on first read, maps a column label to its nonzeros as (key,
    # row label, value), the key being the entry's place in `entries`;
    # assigning `entries` drops the index and the memo key (`_positions`).

    @property
    def entries(self):
        return self._entries

    @entries.setter
    def entries(self, entries):
        self._entries = entries
        self._columns = None
        self._key = None

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
    associates); rank = len(diagonals); U is the product of the row
    operations in `log` and V that of the column operations in `col_log`.
    No transform is held: `_log_apply` runs a log on one vector, and U,
    U^-1, V and V^-1 can be rebuilt from the logs by `_replay`, as the
    tests do.  The one transform built is `Vinv_kernel`, for
    `kernel_coordinates`.
    """

    def __init__(self, matrix, diagonals, log, col_log):
        self.matrix = matrix
        self.diagonals = diagonals
        self.rank = len(diagonals)
        self.log = log
        self.col_log = col_log

    @cached_property
    def Vinv_kernel(self):
        """V^-1's rows past the rank, built on first read: rows the kernel
        positions 0.., columns M's columns, entries row by row."""
        M, rank = self.matrix, self.rank
        ring, labels = M.ring, M.col_labels
        size = len(labels) - rank
        # (V^-1)^T X, X the identity's columns past the rank: row i holds
        # column i of V^-1's rows past the rank
        X = _replay(ring, self.col_log, [{} for _ in range(rank)] + [
            {j: ring.one()} for j in range(size)], True)
        items = sorted((j, i, x) for i, row in enumerate(X)
                       for j, x in row.items())
        return Matrix(ring, range(size), labels,
                      {(j, labels[i]): x for j, i, x in items})


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
    """Return SNF of M, exactly: its diagonals and the logs of its row
    (`log`) and column (`col_log`) operations, and no transform (see
    `SNF`).

    Step t works on the trailing block, rows and columns t..  Its pivot is,
    over Z and GF(p), the first row holding a 1 or -1 at its least such
    column; otherwise (and over Q) the nonzero of least (abs, column) in
    the first row that holds the least abs.  The pivot is swapped to
    (t, t).  The row pass visits column t's nonzeros below the pivot in
    ascending row order and the column pass row t's right of it in
    ascending column order: each entry the pivot divides is eliminated, and
    each other is combined with the pivot by the extended-Euclid
    `_gcd_combine` step.  A gcd step on columns refills column t, so the
    passes repeat.  A pivot that is not a unit and does not divide some
    entry of the trailing block then adds the first row holding one to row
    t (the offender step) and the passes repeat.  Row t is then scaled by
    the canonical unit.

    The matrix is read by position (`_positions`) and held sparsely: rows
    as dicts of nonzeros, and for each column the set of rows nonzero in
    it.  Cancelled entries are deleted; swaps move the set membership.  So
    every step above visits only nonzeros, and under a unit pivot p an
    entry x has the quotient x * p^-1, which is `ring.divmod`'s over Z
    (p = 1, -1), GF(p) and Q, with remainder zero.  A matrix with no
    entries is not eliminated at all: it has no diagonals and empty logs.

    This relies on canonical entries (ints over Z, `Fraction` over Q,
    residues in [0, p) over GF(p)): then an entry is nonzero exactly when it
    is truthy, and 1*x + 0*y is x itself.  The result does not depend on
    the order of the entries: every choice above is made by position.
    """
    if not M.entries:
        return SNF(M, [], [], [])
    diagonals, (log, col_log) = _eliminate((M.ring, _positions(M)), True)
    return SNF(M, diagonals, log, col_log)


def _positions(M):
    """M's shape and its nonzeros as (row position, column position,
    value): all that `_eliminate` reads of M besides its ring, and the key
    of every factorization memo.  The one place where labels become
    positions; kept on M until its `entries` are assigned."""
    if M._key is None:
        row, col = M.row_index, M.col_index
        M._key = M.shape, frozenset([(row[r], col[c], v)
                                     for (r, c), v in M.entries.items()])
    return M._key


def factored(memo, M):
    """`smith_normal_form(M)` through `memo`, which maps `_positions` to an
    SNF or, from `factors`, to invariant factors (None: no memo).

    A hit is exact: the elimination reads M only by position, and entries
    are canonical for each ring, so the stored diagonals and logs are those
    M would give, up to labels.  Each caller gets a fresh SNF on M sharing
    them, whose readers run them on M's labels."""
    if memo is None:
        return smith_normal_form(M)
    key = _positions(M)
    s = memo.get(key)
    if not isinstance(s, SNF):
        s = memo[key] = smith_normal_form(M)
    return SNF(M, s.diagonals, s.log, s.col_log)


def factors(memo, ring, key):
    """The invariant factors of a matrix over `ring` whose `_positions` is
    `key`, through `memo` (see `factored`): read off a stored SNF, else
    eliminated straight from the key.  The list is shared: read it only."""
    s = memo.get(key)
    if s is None:
        s = memo[key] = _eliminate((ring, key), False)[0] if key[1] else []
    return s.diagonals if isinstance(s, SNF) else s


def invariant_factors(M):
    """The diagonals of `smith_normal_form(M)`, equal in value, type and
    order, from the same elimination run without its logs.

    Over a PID these factors fix the cokernel of M up to isomorphism, so a
    caller that needs only ranks and torsion orders skips every log entry
    the full form records.
    """
    return _eliminate((M.ring, _positions(M)), False)[0] if M.entries else []


def _replay(ring, log, X, inverse=False, transposed=False):
    """Run a log (see `_eliminate`) on the sparse rows X in place, keeping
    entries that cancel as zeros, and return X.  Each operation acts on X
    as the row operation the log records, inverted when `inverse` and
    transposed when `transposed`; the log runs reversed exactly when
    inverse != transposed.  So with neither, `inverse`, both, or
    `transposed`, a row log, whose operations multiply to U, gives U X,
    U^-1 X, (U^-1)^T X or U^T X.  A column log holds the transposes of the
    operations that multiply to V, so it gives V^T X, (V^-1)^T X, V^-1 X or
    V X."""
    add, mul, neg, zero = ring.add, ring.mul, ring.neg, ring.zero()
    for op in reversed(log) if inverse != transposed else log:
        kind, i = op[0], op[1]
        if kind == "add":
            _, i, c, t = op
            if inverse:
                c = neg(c)
            if transposed:
                i, t = t, i
            dst = X[i]
            for k, x in X[t].items():
                if x:
                    dst[k] = add(dst.get(k, zero), mul(c, x))
        elif kind == "swap":
            X[i], X[op[2]] = X[op[2]], X[i]
        elif kind == "gcd":
            _, i, j, a, b, c, d = op
            if inverse:
                a, b, c, d = d, neg(b), neg(c), a
            if transposed:
                b, c = c, b
            xi, xj = X[i], X[j]
            pairs = [(k, xi.get(k, zero), xj.get(k, zero))
                     for k in xi.keys() | xj.keys()]
            X[i] = {k: add(mul(a, x), mul(b, y)) for k, x, y in pairs}
            X[j] = {k: add(mul(c, x), mul(d, y)) for k, x, y in pairs}
        else:
            u = ring.inv(op[2]) if inverse else op[2]
            X[i] = {k: mul(u, x) for k, x in X[i].items()}
    return X


def _log_apply(snf, vec, inverse=False, columns=False):
    """U vec, or U^-1 vec when `inverse`, by `snf.log`; with `columns`, V
    vec or V^-1 vec by `snf.col_log`.  vec, keyed by M's row (column)
    labels, a key outside them dropped, runs through the log as a
    one-column matrix; the result holds its nonzeros in label order."""
    M = snf.matrix
    labels, log = ((M.col_labels, snf.col_log) if columns
                   else (M.row_labels, snf.log))
    X = [{0: vec[r]} if r in vec else {} for r in labels]
    _replay(M.ring, log, X, inverse, columns)
    return {r: x[0] for r, x in zip(labels, X) if x.get(0)}


def _eliminate(matrix, track):
    """The elimination `smith_normal_form` describes, of `matrix` =
    (ring, key) with key a `_positions`: the diagonals, and only when
    `track` the logs of its row and of its column operations.

    A log lists each operation on rows (or columns) x once, in order:
    ("swap", i, j); ("add", i, c, t), x_i += c x_t; ("unit", t, u), x_t *= u;
    ("gcd", i, j, a, b, c, d), (x_i, x_j) <- (a x_i + b x_j, c x_i + d x_j)."""
    ring, ((m, n), nonzeros) = matrix
    add, mul, neg = ring.add, ring.mul, ring.neg
    is_unit, is_zero = ring.is_unit, ring.is_zero
    zero, one = ring.zero(), ring.one()
    # A[i] = {column: nonzero}; cols[j] = the rows nonzero in column j
    A = [{} for _ in range(m)]
    cols = [set() for _ in range(n)]
    for i, j, v in nonzeros:
        A[i][j] = v
        cols[j].add(i)
    row_log, col_log = ([], []) if track else (None, None)

    def put_row(i, row):
        # A[i] <- row, moving i between the column sets
        for k in A[i].keys() - row.keys():
            cols[k].discard(i)
        for k in row.keys() - A[i].keys():
            cols[k].add(i)
        A[i] = row

    def row_transform(i, j, a, b, c, d):
        # det 1
        ri, rj = A[i], A[j]
        pairs = [(k, ri.get(k, zero), rj.get(k, zero))
                 for k in ri.keys() | rj.keys()]
        put_row(i, {k: u for k, x, y in pairs
                    if (u := add(mul(a, x), mul(b, y)))})
        put_row(j, {k: u for k, x, y in pairs
                    if (u := add(mul(c, x), mul(d, y)))})
        if track:
            row_log.append(("gcd", i, j, a, b, c, d))

    def col_transform(i, j, a, b, c, d):
        # det 1
        new_i, new_j = set(), set()
        for r in cols[i] | cols[j]:
            row = A[r]
            x, y = row.get(i, zero), row.get(j, zero)
            u = add(mul(a, x), mul(b, y))
            if u:
                row[i] = u
                new_i.add(r)
            else:
                row.pop(i, None)
            u = add(mul(c, x), mul(d, y))
            if u:
                row[j] = u
                new_j.add(r)
            else:
                row.pop(j, None)
        cols[i], cols[j] = new_i, new_j
        if track:
            col_log.append(("gcd", i, j, a, b, c, d))

    int_ring = isinstance(one, int)

    def find_pivot(t):
        # rows t.. are zero left of column t, and over int rings a 1 or -1
        # is least
        if int_ring:
            for i in range(t, m):
                js = [j for j, x in A[i].items() if x == 1 or x == -1]
                if js:
                    return i, min(js)
        best = None
        for i in range(t, m):
            if A[i]:
                least = min((abs(x), j) for j, x in A[i].items())
                if best is None or least[0] < best[0]:
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
            rt, rp = A[t], A[pi]
            put_row(t, rp)
            put_row(pi, rt)
            if track:
                row_log.append(("swap", t, pi))
        if pj != t:
            for r in cols[t] | cols[pj]:
                row = A[r]
                x, y = row.pop(t, None), row.pop(pj, None)
                if y is not None:
                    row[t] = y
                if x is not None:
                    row[pj] = x
            cols[t], cols[pj] = cols[pj], cols[t]
            if track:
                col_log.append(("swap", t, pj))
        while True:
            p = A[t][t]
            pinv = ring.inv(p) if is_unit(p) else None
            # rows below t where column t is nonzero; an elimination or gcd
            # step on row i leaves the rows after it as they are
            for i in sorted(cols[t]):
                if i <= t:
                    continue
                ri = A[i]
                if pinv is not None:
                    q, exact = mul(ri[t], pinv), True
                else:
                    q, r = ring.divmod(ri[t], p)
                    exact = is_zero(r)
                if exact:
                    # r_i <- r_i - q r_t
                    c = neg(q)
                    for k, x in A[t].items():
                        y = add(ri.get(k, zero), mul(c, x))
                        if y:
                            ri[k] = y
                            cols[k].add(i)
                        else:
                            del ri[k]
                            cols[k].discard(i)
                    if track:
                        row_log.append(("add", i, c, t))
                else:
                    a, b, c, d, _ = _gcd_combine(ring, p, ri[t])
                    row_transform(t, i, a, b, c, d)
                    p = A[t][t]
                    pinv = ring.inv(p) if is_unit(p) else None
            # columns right of t where row t is nonzero; a column step on
            # column j leaves the columns after it as they are
            refilled = False
            for j in sorted(k for k in A[t] if k > t):
                if pinv is not None:
                    q, exact = mul(A[t][j], pinv), True
                else:
                    q, r = ring.divmod(A[t][j], p)
                    exact = is_zero(r)
                if exact:
                    # c_j <- c_j - q c_t
                    c, col = neg(q), cols[j]
                    for k in cols[t]:
                        row = A[k]
                        y = add(row.get(j, zero), mul(c, row[t]))
                        if y:
                            row[j] = y
                            col.add(k)
                        else:
                            del row[j]
                            col.discard(k)
                    if track:
                        col_log.append(("add", j, c, t))
                else:
                    a, b, c, d, _ = _gcd_combine(ring, p, A[t][j])
                    col_transform(t, j, a, b, c, d)
                    p = A[t][t]
                    pinv = ring.inv(p) if is_unit(p) else None
                    refilled = True
            if refilled:
                continue
            if pinv is not None:
                break
            offender = next((i for i in range(t + 1, m)
                             if any(not ring.divides(p, x)
                                    for x in A[i].values())), None)
            if offender is None:
                break
            # pull the offending row up so its entries join the pivot's orbit
            row_transform(t, offender, one, one, zero, one)
        u = ring.canonical_unit(A[t][t])
        if not is_zero(ring.sub(u, one)):
            A[t][t] = mul(u, A[t][t])
            if track:
                row_log.append(("unit", t, u))
        t += 1

    diagonals = [A[i][i] for i in range(t) if not is_zero(A[i][i])]
    return diagonals, ((row_log, col_log) if track else None)


def solve(M, b, snf=None):
    """One solution x of M x = b (dict keyed by col labels), or None."""
    ring = M.ring
    s = snf if snf is not None else smith_normal_form(M)
    c = _log_apply(s, b)
    z = {}
    for i, d in enumerate(s.diagonals):
        q, r = ring.divmod(c.pop(M.row_labels[i], ring.zero()), d)
        if not ring.is_zero(r):
            return None
        z[M.col_labels[i]] = q
    if c:
        return None
    return _log_apply(s, z, columns=True)


def kernel_basis(M, snf=None):
    """Basis of the kernel of M (saturated over Z), as column vectors: V's
    columns past the rank, replayed from the column log on the identity's
    columns past the rank, each chain's nonzeros in column order."""
    s = snf if snf is not None else smith_normal_form(M)
    ring, labels = M.ring, M.col_labels
    # V X: row i holds M's column i in each kernel chain
    X = _replay(ring, s.col_log, [{} for _ in range(s.rank)] + [
        {j: ring.one()} for j in range(len(labels) - s.rank)],
        transposed=True)
    chains = [{} for _ in range(len(labels) - s.rank)]
    for c, row in zip(labels, X):
        for j, x in row.items():
            if x:
                chains[j][c] = x
    return chains


def kernel_coordinates(snf, vec):
    """Coordinates of vec in `kernel_basis(snf.matrix, snf)`, keyed by basis
    position, or None when vec is not in the kernel (M vec != 0).  The
    basis is V's columns past the rank, so these are V^-1 vec past the rank
    (`SNF.Vinv_kernel`): M = U^-1 D V^-1 with D's first `rank` diagonals
    nonzero, so V^-1 vec is zero before the rank exactly when M vec = 0."""
    if snf.matrix.apply(vec):
        return None
    return snf.Vinv_kernel.apply(vec)
