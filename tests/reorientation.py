"""Reorientation isomorphisms between complexes built over two vertex
orders of one complex, for tests that conjugate by them."""

from lochom.complexes import perm_sign
from lochom.matrices import Matrix, vec_clean


def _label_to_simplex(label):
    if isinstance(label, tuple) and label and isinstance(label[0], tuple):
        return label[0], label[1:]
    return label, ()


def reorientation_iso(complex1, complex2, X1, X2):
    """Diagonal sign isomorphism between complexes built over two vertex
    orders: each simplex-indexed basis element maps to its re-sorted twin with
    the sign of the vertex permutation."""
    ring = complex1.ring
    out = {}
    degs = sorted(set(complex1.spaces) | set(complex2.spaces))
    for deg in degs:
        src = complex1.basis(deg)
        tgt = complex2.basis(deg)
        entries = {}
        for lab in src:
            simplex, rest = _label_to_simplex(lab)
            resorted = tuple(sorted(simplex, key=X2.pos.__getitem__))
            sign = perm_sign(simplex, X2.pos.__getitem__)
            tlab = (resorted,) + tuple(rest) if rest else resorted
            entries[(tlab, lab)] = ring.from_int(sign)
        out[deg] = Matrix(ring, tgt, src, entries)
    return out


def resort_plain(X2, ring, chain):
    """Reorientation isomorphism on plain chains/cochains: re-sort each tuple
    into the canonical order of X2, with the permutation sign."""
    out = {}
    for s, v in chain.items():
        t = tuple(sorted(s, key=X2.pos.__getitem__))
        sign = ring.from_int(perm_sign(s, X2.pos.__getitem__))
        out[t] = ring.add(out.get(t, ring.zero()), ring.mul(sign, v))
    return vec_clean(ring, out)
