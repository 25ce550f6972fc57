"""Labelled reference builders for the local layer, kept beside the tests.

lochom builds the local complex at a simplex and the reduced complex of its
link by position (`localhomology.LocalComplex`).  These build the same
complexes the labelled way, from the definitions, so the tests can compare:

- `reference_local_complex`: generators (s, a) for the simplices a
  containing s, the boundary dropping faces that no longer contain s, with
  the face sign (-1)^j of the dropped vertex's index j in a;
- `link_complex`: the link {a minus s : s < a} as a `SimplicialComplex` in
  the inherited vertex order, whose reduced chains
  (`sheaves.simplicial_chain_complex(..., reduced=True)`) are the link's
  side of the Munkres cross-check;
- `as_chain_complex`: a positional complex read as a `ChainComplex` whose
  labels are basis positions;
- `reference_stalk`, `reference_restriction_step` and
  `reference_corestriction_step`: the stalks and codimension-one maps of
  the local homology sheaf and cohomology cosheaf, built the labelled way
  on the reference local complexes: a cycle basis of d_n with labels
  (s, a) pushed along (s, a) -> (t, a) where t is a face of a, and a
  cokernel generator of d_n's transpose at t lifted and relabelled
  (t, a) -> (s, a);
- `reference_uct_report`: `localhomology.uct_report` as it read the
  labelled d_n, on the reference local complex, with no memo and no
  `pairings`;
- `reference_link_crosscheck`, `reference_local_cm_check` and
  `reference_concentration`: the link cross-check, the local CM check and
  the UCT report's concentration as they read each simplex's own
  positional complex, before the context kept one row of summaries per
  star type.
"""

from lochom.complexes import SimplicialComplex
from lochom.homology import ChainComplex, CokerPresentation, CycleBasis
from lochom.matrices import (Matrix, invariant_factors, kernel_basis,
                             vec_clean, vec_dot)


def reference_local_complex(X, ring, simplex):
    simplex = tuple(simplex)
    spaces = {}
    for a in X.all_simplices():
        if set(simplex) <= set(a):
            spaces.setdefault(len(a) - 1, []).append((simplex, a))
    diffs = {}
    for k, src in spaces.items():
        tgt = set(spaces.get(k - 1, ()))
        entries = {}
        for (_, a) in src:
            for j in range(len(a)):
                f = a[:j] + a[j + 1:]
                if (simplex, f) in tgt:
                    entries[((simplex, f), (simplex, a))] = \
                        ring.from_int((-1) ** j)
        diffs[k] = Matrix(ring, spaces.get(k - 1, ()), src, entries)
    return ChainComplex(ring, spaces, diffs)


def link_complex(X, simplex):
    s = set(simplex)
    link = [tuple(v for v in a if v not in s)
            for a in X.all_simplices() if s < set(a)]
    verts = {v for t in link for v in t}
    return SimplicialComplex(link, order=[v for v in X.order if v in verts])


def as_chain_complex(pc):
    """`pc`'s bases as positions and its differentials as matrices on
    them, entries in their written order."""
    sizes = {pc.low + i: len(level) for i, level in enumerate(pc.levels)}
    spaces = {k: tuple(range(n)) for k, n in sizes.items()}
    diffs = {k: Matrix(pc.ring, spaces.get(k - 1, ()), spaces[k],
                       {(r, c): v for r, c, v in pc.entries[k - pc.low]})
             for k in spaces if pc.entries[k - pc.low]}
    return ChainComplex(pc.ring, spaces, diffs, memo=pc.memo)


def reference_stalk(X, ring, simplex, n, dual):
    """The labelled degree-n stalk at a simplex: a cycle basis of the
    reference d_n, or with dual the cokernel of its transpose."""
    d_n = reference_local_complex(X, ring, simplex).differential(n)
    return (CokerPresentation(ring, d_n.transpose()) if dual
            else CycleBasis(d_n, None))


def reference_restriction_step(ring, src, tgt, simplex, cosimplex):
    """The sheaf's step between the `reference_stalk`s src at simplex and
    tgt at cosimplex."""
    t = set(cosimplex)
    cols = []
    for z in src.cycles:
        img = vec_clean(ring, {(tuple(cosimplex), a): v
                               for (_, a), v in z.items() if t.issubset(a)})
        y = tgt.cycle_coordinates(img)
        if y is None:
            raise ValueError(f"restriction image at {simplex}<"
                             f"{tuple(cosimplex)} is not a cycle")
        cols.append(y)
    return Matrix.from_columns(ring, tuple(range(len(tgt.cycles))),
                               tuple(range(len(src.cycles))), cols)


def reference_corestriction_step(ring, pres_t, pres_s, simplex):
    """The cosheaf's step from the dual `reference_stalk` pres_t at a
    coface to pres_s at simplex."""
    cols = []
    for j in range(len(pres_t)):
        rep = {(tuple(simplex), a): v for (_, a), v in pres_t.lift(j).items()}
        cols.append({i: c for i, c in enumerate(pres_s.project(rep))
                     if not ring.is_zero(c)})
    return Matrix.from_columns(ring, tuple(range(len(pres_s))),
                               tuple(range(len(pres_t))), cols)


def reference_uct_report(X, ring, simplex, n):
    """The evaluation pairing at one simplex from the labelled d_n: the
    cycles of d_n, the cokernel of its transpose, the pairing matrix of the
    cokernel's lifts against the cycles, and concentration from the
    reference complex's summaries."""
    simplex = tuple(simplex)
    cx = reference_local_complex(X, ring, simplex)
    concentrated = all(cx.homology_summary(k) == (0, [])
                       for k in range(0, X.dim + 1) if k != n)
    d_n = cx.differential(n)
    cycles = kernel_basis(d_n)
    pres = CokerPresentation(ring, d_n.transpose())
    lifts = [pres.lift(i) for i in range(len(pres))]
    factors = invariant_factors(Matrix(
        ring, range(len(lifts)), range(len(cycles)),
        {(i, j): vec_dot(ring, lift, z) for i, lift in enumerate(lifts)
         for j, z in enumerate(cycles)}))
    unimodular = (len(factors) == len(lifts) == len(cycles)
                  and all(ring.is_unit(d) for d in factors))
    h_rank, (free, torsion) = len(cycles), pres.rank_summary
    return {
        "simplex": simplex,
        "locally_cm_here": concentrated,
        "h_rank": h_rank,
        "h_dual_summary": (free, list(torsion)),
        "pairing_unimodular": unimodular,
        "ok": concentrated and not torsion and h_rank == free and unimodular,
    }


def reference_link_crosscheck(ctx, simplex):
    """`localhomology.link_crosscheck` as it compared the summaries of the
    local complex and of its link afresh at every simplex."""
    local = ctx.complex(simplex)
    link = local.link()
    return all(local.homology_summary(i) == link.homology_summary(
        i - local.low - 1) for i in range(-1, ctx.X.dim + 1))


def reference_local_cm_check(ctx, L, n):
    """`localhomology.local_cm_check` as it asked each simplex's complex for
    its summaries, degree by degree."""
    X = ctx.X
    witnesses = []
    locally_cm_at_L = True
    locally_cm = True
    for s in X.all_simplices():
        in_L = L is None or L.contains(s)
        for k in range(0, X.dim + 1):
            if k == n:
                continue
            summary = ctx.complex(s).homology_summary(k)
            if summary != (0, []):
                witnesses.append((s, k, summary))
                locally_cm = False
                if in_L:
                    locally_cm_at_L = False
    return {"locally_cm_at_L": locally_cm_at_L, "locally_cm": locally_cm,
            "witnesses": witnesses}


def reference_concentration(ctx, simplex, n):
    """`localhomology.uct_report`'s locally_cm_here, read from the
    simplex's own complex."""
    cx = ctx.complex(simplex)
    return all(cx.homology_summary(k) == (0, [])
               for k in range(0, ctx.X.dim + 1) if k != n)
