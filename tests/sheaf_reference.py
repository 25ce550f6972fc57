"""Test-side sheaves and the functoriality oracle.

- `ConstantSheaf` and `ConstantCosheaf`: rank-one constant coefficients,
  with the `X`, `ring`, `covariant`, `stalk`, `step` and `step_entries` the
  coefficient complexes and the oracle read, for the engine tests.
- `step_matrix(A, lo, hi)`: a sheaf's or cosheaf's codimension-one `step`
  columns as a `Matrix` between the stalks of lo < hi.
- `along(A, lo, hi)`: the map between the stalks of lo <= hi composed from
  those steps along one chain of faces.
- `check_functorial(A)`: True, or ValueError naming the first
  sigma < mu < tau on which the composites disagree.
"""

from itertools import combinations

from lochom.matrices import Matrix


class ConstantSheaf:
    """The constant sheaf of rank one: every stalk has the basis (0,) and
    every step is the identity.  A subclass may change `step` alone."""

    covariant = True

    def __init__(self, ring, X):
        self.ring, self.X = ring, X

    def stalk(self, simplex):
        return (0,)

    def step(self, lo, hi):
        return [{0: self.ring.one()}]

    def step_entries(self, lo, hi):
        return [((r, c), v) for c, col in enumerate(self.step(lo, hi))
                for r, v in col.items()]


class ConstantCosheaf(ConstantSheaf):
    """The constant cosheaf of rank one."""

    covariant = False


def step_matrix(A, lo, hi):
    """The step of A between the stalks of a codimension-one pair lo < hi:
    lo -> hi for a sheaf, hi -> lo for a cosheaf."""
    src, tgt = (lo, hi) if A.covariant else (hi, lo)
    return Matrix.from_columns(A.ring, A.stalk(tgt), A.stalk(src),
                               A.step(lo, hi))


def along(A, lo, hi):
    """The map between the stalks of lo <= hi: the product of the steps
    along the chain lo = c_0 < c_1 < ... < c_r = hi that adds hi's extra
    vertices in order, walked down for a cosheaf; the identity for
    lo = hi."""
    chain = [tuple(lo)]
    for v in hi:
        if v not in lo:
            chain.append(A.X.canon(chain[-1] + (v,)))
    start = chain[0] if A.covariant else chain[-1]
    m = Matrix.identity(A.ring, A.stalk(start))
    pairs = list(zip(chain, chain[1:]))
    for a, b in (pairs if A.covariant else reversed(pairs)):
        m = step_matrix(A, a, b) @ m
    return m


def check_functorial(A):
    """True, or ValueError naming the first sigma < mid < tau where the map
    along sigma < tau differs from the composite through mid."""
    kind = "sheaf" if A.covariant else "cosheaf"
    for tau in A.X.all_simplices():
        subs = [f for k in range(1, len(tau)) for f in combinations(tau, k)]
        for sigma in subs:
            for mid in subs:
                if set(sigma) < set(mid):
                    first, then = along(A, sigma, mid), along(A, mid, tau)
                    composite = (then @ first if A.covariant
                                 else first @ then)
                    if along(A, sigma, tau) != composite:
                        raise ValueError(f"{kind} not functorial on "
                                         f"{sigma} < {mid} < {tau}")
    return True
