"""Simplicial maps, orientation indices, star-local homeomorphism
certificates, the induced wrong-way maps on local (co)homology generators,
and naturality verification for the duality isomorphisms.

A vertex map f between oriented complexes acts on a dimension-preserving
simplex with the sign of the permutation sorting the image vertices into the
target order (the orientation index).  When f restricts to a simplicial
isomorphism on the closed star of every preimage simplex, it additionally
induces a transfer on generator-labelled chains in both directions:
pushforward on cochains with local-homology stalk values, and pullback on
chains with local-cohomology stalk values (summing over the fibre, inverting
carriers through the star bijections).
"""

from .complexes import Subcomplex, _parse_token, _strip, perm_sign
from .homology import maps_agree
from .localhomology import (LocalCohomologyCosheaf, LocalContext,
                            LocalHomologySheaf, local_cm_check)
from .matrices import Matrix, vec_clean
from .mv import (degree_matrices, duality_map_matrices, fundamental_class,
                 project_stalks)


class SimplicialMap:
    """Simplicial vertex map between oriented complexes: images and fibres are
    cached, but `fiber` re-sorts and `ind` recomputes its sign on each call."""

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        for v in source.order:
            if (v,) in source._simplices and v not in self.vertex_map:
                raise ValueError(f"vertex {v!r} has no image")
        for v, w in self.vertex_map.items():
            if not source.contains((v,)):
                raise ValueError(f"vertex {v!r} is not in the source")
            if not target.contains((w,)):
                raise ValueError(f"image {w!r} of {v!r} is not in the target")
        self._images = {}
        for s in source.all_simplices():
            imgs = {self.vertex_map[v] for v in s}
            img = target.canon(imgs)
            if not target.contains(img):
                raise ValueError(f"image of {s!r} is not a simplex: {img!r}")
            self._images[s] = img
        self._fibers = {}
        for s, img in self._images.items():
            if len(img) == len(s):
                self._fibers.setdefault(img, []).append(s)

    def image(self, simplex):
        return self._images[tuple(simplex)]

    def is_dimension_preserving(self, simplex):
        return len(self.image(simplex)) == len(tuple(simplex))

    def fiber(self, simplex):
        """Dimension-preserving preimages of a target simplex."""
        return tuple(sorted(self._fibers.get(tuple(simplex), ()),
                            key=lambda t: tuple(self.source.pos[v] for v in t)))

    def ind(self, simplex):
        """Sign of the permutation sorting the image vertices (taken in
        source order) into the target order."""
        simplex = tuple(simplex)
        if not self.is_dimension_preserving(simplex):
            raise ValueError(f"{simplex!r} collapses under the map")
        imgs = [self.vertex_map[v] for v in simplex]
        return perm_sign(imgs, self.target.pos.__getitem__)

    def is_orientation_preserving(self):
        return all(self.ind(s) == 1 for s in self.source.all_simplices()
                   if self.is_dimension_preserving(s))


def parse_map(text, source, target):
    """Simplicial-map file: one `map: v -> w` line per source vertex."""
    vm = {}
    for line, raw in _strip(text):
        if not line.startswith("map:"):
            raise ValueError(f"unrecognized line {raw!r}")
        body = line[len("map:"):]
        if "->" not in body:
            raise ValueError(f"missing '->' in line {raw!r}")
        left, right = body.split("->", 1)
        v, w = _parse_token(left.strip()), _parse_token(right.strip())
        if v in vm:
            raise ValueError(f"vertex {v!r} mapped twice")
        vm[v] = w
    return SimplicialMap(source, target, vm)


def pushforward_chain(f, chain, ring):
    """Signed pushforward on plain chains; raises when the support collapses."""
    out = {}
    for s, v in chain.items():
        if not f.is_dimension_preserving(s):
            raise ValueError(f"{s!r} collapses under the map")
        img = f.image(s)
        sign = ring.from_int(f.ind(s))
        out[img] = ring.add(out.get(img, ring.zero()), ring.mul(sign, v))
    return vec_clean(ring, out)


def pullback_cochain(f, cochain, ring):
    """Signed pullback on plain cochains (the evaluation dual of the
    pushforward); collapsed simplices pull back to zero."""
    out = {}
    for t in f.source.all_simplices():
        if not f.is_dimension_preserving(t):
            continue
        v = cochain.get(f.image(t))
        if v is None or ring.is_zero(v):
            continue
        out[t] = ring.mul(ring.from_int(f.ind(t)), v)
    return vec_clean(ring, out)


# -- star-local certificates --------------------------------------------------

def check_star_local(f):
    """Certificate that f restricts to a simplicial isomorphism on the closed
    star of every dimension-preserving preimage, with pairwise disjoint
    preimage stars; on failure returns the offending pair."""
    X, Y = f.source, f.target
    bijections = {}
    for sigma in Y.all_simplices():
        fib = f.fiber(sigma)
        star_sigma = Y.star(sigma)
        seen_stars = []
        for tau in fib:
            star_tau = X.star(tau)
            for prev_tau, prev in seen_stars:
                if prev & star_tau:
                    return {"ok": False, "witness": (sigma, tau),
                            "reason": f"stars of {prev_tau} and {tau} meet"}
            seen_stars.append((tau, star_tau))
            # vertex bijection between the stars
            verts_tau = sorted({v for t in star_tau for v in t},
                               key=X.pos.__getitem__)
            back = {}
            for v in verts_tau:
                w = f.vertex_map[v]
                if w in back:
                    return {"ok": False, "witness": (sigma, tau),
                            "reason": f"vertices {back[w]} and {v} of the "
                                      f"star both map to {w}"}
                back[w] = v
            verts_sigma = {v for t in star_sigma for v in t}
            if set(back) != verts_sigma:
                return {"ok": False, "witness": (sigma, tau),
                        "reason": "star vertex sets do not correspond"}
            # f is injective on the star's vertices, so a surjection of the
            # star simplices is a bijection and back inverts it
            image_star = {f.image(t) for t in star_tau}
            if image_star != star_sigma:
                return {"ok": False, "witness": (sigma, tau),
                        "reason": "star simplices do not correspond"}
            bijections[(sigma, tau)] = back
    return {"ok": True, "bijections": bijections}


def star_inverse(f, cert, sigma, tau, alpha):
    """Carrier of alpha through the inverse of the star bijection at tau."""
    back = cert["bijections"][(tuple(sigma), tuple(tau))]
    return f.source.canon(back[w] for w in alpha)


# -- the induced maps on generator-labelled (co)chains ------------------------

def shriek_down(f, cochain, ring):
    """Transfer of cochains with local-homology stalk generators along f:
    push both the carrier and the top simplex forward, signed by both
    orientation indices."""
    out = {}
    for (s, a), v in cochain.items():
        sign = ring.from_int(f.ind(s) * f.ind(a))
        key = (f.image(s), f.image(a))
        out[key] = ring.add(out.get(key, ring.zero()), ring.mul(sign, v))
    return vec_clean(ring, out)


def shriek_up(f, cert, chain, ring):
    """Wrong-way map on chains with local-cohomology stalk generators: sum
    over the fibre of the carrier, transporting the top simplex through the
    star bijections."""
    out = {}
    for (s, a), v in chain.items():
        for tau in f.fiber(s):
            lifted = star_inverse(f, cert, s, tau, a)
            sign = ring.from_int(f.ind(tau) * f.ind(lifted))
            key = (tau, lifted)
            out[key] = ring.add(out.get(key, ring.zero()), ring.mul(sign, v))
    return vec_clean(ring, out)


def shriek_up_preserves_fundamental_class(f, cert, ring):
    """f^! sends the diagonal top cycle of the target to that of the source,
    exactly at chain level."""
    fy = fundamental_class(f.target, ring)
    fx = fundamental_class(f.source, ring)
    return shriek_up(f, cert, fy, ring) == fx


# -- naturality of the duality isomorphisms -----------------------------------

def _sheaf_transfer_matrix(f, FX, FY, srcX, srcY, l, ring):
    """Matrix of the cochain transfer in stalk bases: push each source stalk
    cycle forward and re-coordinatize in the target stalk cycle basis."""
    cols = []
    for (s, lab) in srcX.basis(l):
        pushed = shriek_down(f, dict(FX.cycle(s, lab)), ring)
        fs = f.image(s)
        y = FY.cycle_coordinates(fs, pushed)
        if y is None:
            raise ValueError(f"transfer image at {s} is not a cycle")
        cols.append({(fs, klab): v for klab, v in y.items()})
    return Matrix.from_columns(ring, srcY.basis(l), srcX.basis(l), cols)


def _cosheaf_transfer_matrix(f, cert, GX, GY, tgtY, tgtX, q, ring):
    """Matrix of the wrong-way map in cokernel stalk bases: lift each target
    stalk generator, transfer through the star bijections, and project into
    the source presentations."""
    cols = []
    for (s, j) in tgtY.basis(q):
        moved = shriek_up(f, cert, GY.lift(s, j), ring)
        cols.append(project_stalks(GX, moved))
    return Matrix.from_columns(ring, tgtX.basis(q), tgtY.basis(q), cols)


def verify_naturality(f, ring):
    """Both naturality squares of the duality isomorphisms for a star-local
    map between locally Cohen-Macaulay complexes of equal dimension, with the
    full complexes as subcomplex pair.

    Covariant square, per degree l: capping in the target after the cochain
    transfer equals pushing forward after capping in the source.
    Contravariant square: capping in the source after cochain pullback equals
    the wrong-way map after capping in the target.  When f preserves
    orientation both squares commute at chain level; otherwise they are
    compared on homology."""
    X, Y = f.source, f.target
    n = X.dim
    report = {"ring": ring.name, "n": n}
    cert = check_star_local(f)
    report["star_local"] = cert["ok"]
    if not cert["ok"]:
        report["witness"] = cert["witness"]
        report["reason"] = cert["reason"]
        return report
    if Y.dim != n:
        report["error"] = "dimension mismatch"
        return report
    ctxX = LocalContext(X, ring)
    ctxY = ctxX if Y is X else LocalContext(Y, ring)
    for ctx, tag in ((ctxX, "source"), (ctxY, "target")):
        if tag == "source" or ctx is not ctxX:
            rep = local_cm_check(ctx, None, n)
        report[f"{tag}_locally_cm"] = rep["locally_cm"]
        if not rep["locally_cm"]:
            report["witness"] = rep["witnesses"][:1]
            return report
    orientation = f.is_orientation_preserving()
    report["orientation_preserving"] = orientation
    report["level"] = "chain" if orientation else "homology"
    report["fundamental_class_transfers"] = \
        shriek_up_preserves_fundamental_class(f, cert, ring)

    FX, FY = LocalHomologySheaf(ctxX, n), LocalHomologySheaf(ctxY, n)
    GX = LocalCohomologyCosheaf(ctxX, n)
    GY = LocalCohomologyCosheaf(ctxY, n)
    maps = {}  # a self-map's target maps are its source maps
    for item in ("1ai", "2bii"):
        for ctx in (ctxX, ctxY):
            if (ctx, item) not in maps:
                maps[ctx, item] = duality_map_matrices(
                    ctx, Subcomplex(ctx.X, ctx.X.order), item)
    capX1_src, capX1_tgt, capX1 = maps[ctxX, "1ai"]
    capY1_src, capY1_tgt, capY1 = maps[ctxY, "1ai"]
    capX2_src, capX2_tgt, capX2 = maps[ctxX, "2bii"]
    capY2_src, capY2_tgt, capY2 = maps[ctxY, "2bii"]

    push = degree_matrices(ring, lambda c: pushforward_chain(f, c, ring),
                           capX1_tgt, capY1_tgt, n)
    pull = degree_matrices(ring, lambda c: pullback_cochain(f, c, ring),
                           capY2_src, capX2_src, n)
    covariant = {}
    for l in range(0, n + 1):
        down = _sheaf_transfer_matrix(f, FX, FY, capX1_src, capY1_src, l, ring)
        covariant[l] = maps_agree(capY1[l] @ down, push[n - l] @ capX1[l],
                                  capX1_src, l, capY1_tgt, n - l, orientation)
    report["covariant"] = covariant

    contravariant = {}
    for l in range(0, n + 1):
        up = _cosheaf_transfer_matrix(f, cert, GX, GY, capY2_tgt, capX2_tgt,
                                      n - l, ring)
        contravariant[l] = maps_agree(capX2[l] @ pull[l], up @ capY2[l],
                                      capY2_src, l, capX2_tgt, n - l,
                                      orientation)
    report["contravariant"] = contravariant
    report["ok"] = (report["fundamental_class_transfers"]
                    and all(covariant.values())
                    and all(contravariant.values()))
    return report
