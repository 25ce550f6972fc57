"""Naturality identities that no command reports, kept as test oracles.

- `naturality_defect_v1`/`_v2`: the chain-level naturality of the two caps
  under a star-local map f, on one generator pair; zero when f preserves
  orientation.
- `naturality_report`: the collapse and augmentation maps of nested full
  subcomplexes K inside K' commute with the comparison maps between their
  Mayer-Vietoris double complexes, at chain level and on homology.
"""

from lochom.caps import cap_v1, cap_v2
from lochom.complexes import Subcomplex
from lochom.homology import maps_agree
from lochom.matrices import vec_sub
from lochom.mv import MVDoubleComplex, degree_matrices
from lochom.simplicialmaps import (pullback_cochain, pushforward_chain,
                                   shriek_down, shriek_up)


def naturality_defect_v1(f, cert, ring, s, b, t, c):
    """push(pull(xi) cap phi) - xi cap push(phi) for the pairing cap, on the
    generator pair xi = (s, b)* of the target and phi = (t, c) of the source;
    zero when f preserves orientation."""
    k, l = len(s) - 1, len(t) - 1
    if k < l:
        return {}
    xi = {(s, b): ring.one()}
    phi = {(t, c): ring.one()}
    lhs_chain = cap_v1(ring, shriek_up(f, cert, xi, ring), phi, l)
    lhs = pushforward_chain(f, lhs_chain, ring)
    rhs = cap_v1(ring, xi, shriek_down(f, phi, ring), l)
    return vec_sub(ring, lhs, rhs)


def naturality_defect_v2(f, cert, ring, s, b, t):
    """pull(xi) cap pullback(psi) - pull(xi cap psi) for the transportless
    cap, on xi = (s, b)* and psi = t* of the target; zero when f preserves
    orientation."""
    k, l = len(s) - 1, len(t) - 1
    if k < l:
        return {}
    xi = {(s, b): ring.one()}
    psi = {t: ring.one()}
    lhs = cap_v2(ring, shriek_up(f, cert, xi, ring),
                 pullback_cochain(f, psi, ring), l)
    rhs = shriek_up(f, cert, cap_v2(ring, xi, psi, l), ring)
    return vec_sub(ring, lhs, rhs)


def order_for_nested(X, K, Kp):
    """A vertex order putting (K')^vc first, then K' minus K, then K: both
    inclusions then satisfy the vertex-complement-first convention."""
    kset = set(K.vertex_set)
    kpset = set(Kp.vertex_set)
    if not kset <= kpset:
        raise ValueError("first subcomplex must be contained in the second")
    outside = [v for v in X.order if v not in kpset]
    middle = [v for v in X.order if v in kpset and v not in kset]
    inside = [v for v in X.order if v in kset]
    return tuple(outside + middle + inside)


def naturality_report(X, K, Kp, ring):
    """Certify that the collapse and augmentation maps of nested full
    subcomplexes K inside K' commute with the natural comparison maps.

    The comparison runs from the larger complex to the smaller one: the
    component projection D(K') -> D(K) kills generators whose subcomplex
    simplex leaves K (the generator-wise inclusion the other way does not
    commute with the horizontal differential), and relative chains over the
    smaller vertex complement map onto relative chains over the larger one.
    Both squares commute exactly at chain level, hence also on homology."""
    if not isinstance(K, Subcomplex):
        K = Subcomplex(X, K)
    if not isinstance(Kp, Subcomplex):
        Kp = Subcomplex(X, Kp)
    order = order_for_nested(X, K, Kp)
    X2 = X.with_order(order)
    K2 = Subcomplex(X2, K.vertex_set)
    Kp2 = Subcomplex(X2, Kp.vertex_set)
    dk = MVDoubleComplex(X2, K2, ring)
    dkp = MVDoubleComplex(X2, Kp2, ring)
    tot_k, bar_k = dk.total_complex(), dk.bar_relative_complex()
    tot_kp, bar_kp = dkp.total_complex(), dkp.bar_relative_complex()
    c_k = degree_matrices(ring, dk.c_map, tot_k, bar_k, X2.dim)
    c_kp = degree_matrices(ring, dkp.c_map, tot_kp, bar_kp, X2.dim)
    e_k = degree_matrices(ring, dk.epsilon, bar_k, tot_k, X2.dim)
    e_kp = degree_matrices(ring, dkp.epsilon, bar_kp, tot_kp, X2.dim)

    def kept_by(cx):
        """Generator map keeping the generators in cx's bases."""
        keep = {g for q in cx.spaces for g in cx.basis(q)}
        return lambda chain: {g: v for g, v in chain.items() if g in keep}

    proj = degree_matrices(ring, kept_by(tot_k), tot_kp, tot_k, X2.dim)
    quot = degree_matrices(ring, kept_by(bar_k), bar_kp, bar_k, X2.dim)
    chain_maps = True
    for q in range(1, X2.dim + 1):
        if not (tot_k.differential(q) @ proj[q]
                - proj[q - 1] @ tot_kp.differential(q)).is_zero():
            chain_maps = False
        if not (bar_k.differential(q) @ quot[q]
                - quot[q - 1] @ bar_kp.differential(q)).is_zero():
            chain_maps = False
    degrees = range(X2.dim + 1)
    via_k = [c_k[q] @ proj[q] for q in degrees]
    via_kp = [quot[q] @ c_kp[q] for q in degrees]
    collapse_square = all([maps_agree(via_k[q], via_kp[q], tot_kp, q, bar_k,
                                      q, True) for q in degrees])
    augment_square = all(
        (e_k[q] @ quot[q] - proj[q] @ e_kp[q]).is_zero()
        for q in degrees)
    homology_square = all([maps_agree(via_k[q], via_kp[q], tot_kp, q, bar_k,
                                      q, False) for q in degrees])
    return {
        "chain_maps": chain_maps,
        "collapse_square": collapse_square,
        "augment_square": augment_square,
        "homology_square": homology_square,
        "ok": (chain_maps and collapse_square and augment_square
               and homology_square),
    }
