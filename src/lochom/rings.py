"""Exact commutative PID arithmetic: integers, rationals, prime fields.

Elements are plain Python values (int for ZZ and GF(p), Fraction for QQ);
a Ring object supplies the operations so matrix code stays ring-generic.
"""

import operator
from fractions import Fraction

from .complexes import _parse_token


class Ring:
    """Base class for the three runtime rings. All arithmetic is exact.

    Each ring defines zero(), one(), signs = (one(), from_int(-1)) (so that
    signs[j & 1] is (-1)^j), from_int(n), add(a, b), neg(a), mul(a, b),
    is_zero(a), is_unit(a), inv(a) (the inverse of a unit), divmod(a, b)
    (Euclidean division a = q*b + r with r smaller than b) and
    canonical_unit(a) (a unit u such that u*a is the canonical associate of
    a: a positive integer, a monic rational, a nonzero residue normalized to
    itself).  The operations below are built from those."""

    name = "?"
    is_field = False

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        """Exact division; b must divide a."""
        q, r = self.divmod(a, b)
        if not self.is_zero(r):
            raise ArithmeticError(f"{b} does not divide {a} in {self.name}")
        return q

    def divides(self, a, b):
        """True if a divides b."""
        if self.is_zero(a):
            return self.is_zero(b)
        return self.is_zero(self.divmod(b, a)[1])

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    # builtins, so a call runs no Python frame; not being functions, they
    # bind no `self` as class attributes
    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    is_zero = operator.not_
    signs = (1, -1)

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ArithmeticError(f"{a} is not a unit in Z")

    def divmod(self, a, b):
        q, r = divmod(a, b)
        # bias remainder toward smallest absolute value for faster SNF
        # (python's r has the sign of b and |r| < |b|; stepping q once more
        # flips r across zero, shrinking it whenever |r| > |b|/2)
        if 2 * abs(r) > abs(b):
            q += 1
            r = a - q * b
        return q, r

    def canonical_unit(self, a):
        return -1 if a < 0 else 1


# shared, as the sweeps ask for these hundreds of thousands of times
_Q_CONSTANTS = {n: Fraction(n) for n in (0, 1, -1)}


class RationalField(Ring):
    name = "Q"
    is_field = True

    def zero(self):
        return _Q_CONSTANTS[0]

    def one(self):
        return _Q_CONSTANTS[1]

    def from_int(self, n):
        c = _Q_CONSTANTS.get(n)
        return c if c is not None else Fraction(n)

    # builtins, as over Z
    add = operator.add
    sub = operator.sub
    neg = operator.neg
    mul = operator.mul
    is_zero = operator.not_
    is_unit = operator.truth
    signs = (_Q_CONSTANTS[1], _Q_CONSTANTS[-1])

    def inv(self, a):
        if a == 0:
            raise ArithmeticError("0 is not a unit in Q")
        return 1 / Fraction(a)

    def divmod(self, a, b):
        return a / Fraction(b), _Q_CONSTANTS[0]

    def canonical_unit(self, a):
        return Fraction(1) if a == 0 else 1 / Fraction(a)


# Miller-Rabin with these bases decides primality exactly below PRIME_LIMIT
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p):
    if p < 2:
        return False
    for q in MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(Ring):
    is_field = True

    def __init__(self, p):
        if p >= PRIME_LIMIT:
            raise ValueError(f"prime fields need p < {PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.signs = (1, p - 1)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise ArithmeticError(f"0 is not a unit in {self.name}")
        return pow(a, -1, self.p)

    def divmod(self, a, b):
        return (a * self.inv(b)) % self.p, 0

    def canonical_unit(self, a):
        return 1 if a % self.p == 0 else self.inv(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


ZZ = IntegerRing()
QQ = RationalField()

_prime_fields = {}


def GF(p):
    """The prime field with p elements (cached)."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def ring_from_name(name):
    """Parse a ring selector: 'z', 'q', or 'fp:<prime>'."""
    name = name.lower()
    if name == "z":
        return ZZ
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        if type(p := _parse_token(name[3:])) is not int:
            raise ValueError(f"ring selector {name!r}: write the prime in "
                             f"plain decimal digits")
        return GF(p)
    raise ValueError(f"unknown ring selector {name!r} (use z, q, fp:<prime>)")
