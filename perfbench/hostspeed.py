"""A fixed reference computation that tracks the speed of the host.

On a shared machine the same lochom call can take 1.7 times longer in one
minute than in the next, and CPU time moves with wall time, so the spread is
the host's, not the program's.  The benchmark times this reference next to
every operation and reports each operation's wall time scaled to the
reference speed: raw * REFERENCE_S / (reference time measured around it).
The reference is pure Python in the style of lochom's inner loops (method
calls on a ring object, list comprehensions over rows, small dicts) and
imports nothing from lochom, so no change to lochom can move it.
"""

import time

# Time of one reference() call on an unloaded 2-core x86-64 host running
# CPython 3.11; scaled figures are seconds on a host of that speed.
REFERENCE_S = 0.0120


class _Field:
    p = 10007

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def inv(self, a):
        return pow(a, -1, self.p)


def _eliminate(n=44):
    """Row-reduce a fixed n x n matrix over F_10007; returns its rank."""
    F = _Field()
    x = 12345
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % F.p)
        A.append(row)
    rank = 0
    pivots = {}
    for t in range(n):
        piv = next((i for i in range(rank, n) if not F.is_zero(A[i][t])), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = F.inv(A[rank][t])
        for i in range(rank + 1, n):
            c = F.mul(A[i][t], inv)
            if c:
                A[i] = [F.add(x, F.mul(F.p - c, y))
                        for x, y in zip(A[i], A[rank])]
        pivots[(rank, t)] = A[rank][t]
        rank += 1
    return rank


def reference():
    """Wall time of one reference computation, in seconds: the faster of
    two, so that one interrupt does not skew the operations around it."""
    best = None
    for _ in range(2):
        t = time.perf_counter()
        _eliminate()
        dt = time.perf_counter() - t
        best = dt if best is None else min(best, dt)
    return best


def scaled(raw, ref_before, ref_after):
    """A raw wall time scaled to the reference speed."""
    return raw * REFERENCE_S * 2 / (ref_before + ref_after)
