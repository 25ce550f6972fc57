"""Expected homology that does not come from lochom.

Two sources: a table of the integral homology of the closed inputs, carried
to F_p, Q and to cohomology by the universal coefficient theorem; and a
rank-mod-p elimination written here, for pairs and subcomplexes with a proper
subcomplex L, where no table entry applies.  A summary is lochom's
(free rank, torsion list) pair as it appears in a JSON report.
"""

# Integral homology H_0, H_1, ... of the closed inputs, as (free rank, torsion).
Z_HOMOLOGY = {
    "rp2": [(1, []), (0, [2]), (0, [])],
    "torus": [(1, []), (2, []), (1, [])],
    "sphere2": [(1, []), (0, []), (1, [])],
    "sphere3": [(1, []), (0, []), (0, []), (1, [])],
    "sphere4": [(1, []), (0, []), (0, []), (0, []), (1, [])],
    "wedge_s2_s2": [(1, []), (0, []), (2, [])],
}

LARGE_PRIME = 1000003


def ring_prime(ring):
    """The characteristic of a ring name: 0 for z and q, p for fp:p."""
    return int(ring[3:]) if ring.startswith("fp:") else 0


def _mod_p_dims(z_summaries, p):
    """dim H_k(-; F_p) from integral summaries (universal coefficients)."""
    out = []
    for k, (free, torsion) in enumerate(z_summaries):
        below = z_summaries[k - 1][1] if k > 0 else []
        out.append(free + sum(1 for t in torsion if t % p == 0)
                   + sum(1 for t in below if t % p == 0))
    return out


def homology(name, ring):
    """Known H_k(X; ring) summaries of a closed input."""
    z = Z_HOMOLOGY[name]
    if ring == "z":
        return [(f, list(t)) for f, t in z]
    if ring == "q":
        return [(f, []) for f, _ in z]
    return [(d, []) for d in _mod_p_dims(z, ring_prime(ring))]


def cohomology(name, ring):
    """Known H^k(X; ring) summaries: over Z the torsion moves up a degree."""
    if ring != "z":
        return homology(name, ring)
    z = Z_HOMOLOGY[name]
    return [(f, list(z[k - 1][1]) if k > 0 else [])
            for k, (f, _) in enumerate(z)]


def reduced_concentrated(name, ring, n):
    """True iff the reduced homology vanishes outside degree n."""
    h = homology(name, ring)
    for k, (free, torsion) in enumerate(h):
        if k == n:
            continue
        if (free - (1 if k == 0 else 0)) or torsion:
            return False
    return True


# -- rank mod p ---------------------------------------------------------------

def _rank_mod_p(columns, p):
    """Rank over F_p of the matrix whose columns are {row: value} dicts."""
    pivots = {}
    rank = 0
    for col in columns:
        v = {r: x % p for r, x in col.items() if x % p}
        while v:
            r = max(v)
            if r not in pivots:
                inv = pow(v[r], -1, p)
                pivots[r] = {k: x * inv % p for k, x in v.items()}
                rank += 1
                break
            piv = pivots[r]
            c = v[r]
            for k, x in piv.items():
                y = (v.get(k, 0) - c * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return rank


def region_betti(simplices, p):
    """dim_k over F_p of the homology of the chain complex spanned by the given
    simplices (sorted tuples), whose boundary drops faces outside the set.
    A subcomplex gives its homology; X minus a subcomplex A gives H_*(X, A)."""
    simplices = set(simplices)
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim, default=-1)
    ranks = {}
    for k in range(1, top + 1):
        cols = []
        for s in by_dim.get(k, ()):
            col = {}
            for j in range(len(s)):
                f = s[:j] + s[j + 1:]
                if f in simplices:
                    col[f] = (-1) ** j
            cols.append(col)
        ranks[k] = _rank_mod_p(cols, p)
    return [len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)]


def full_subcomplex(faces, vertices):
    vertices = set(vertices)
    return {s for s in faces if vertices.issuperset(s)}


def check_against_betti(summaries, betti, ring, cohomological=False):
    """Compare lochom summaries per degree with mod-p dimensions.

    betti maps a prime to the list of F_p dimensions.  Over a field the
    summary must be (dim, []).  Over Z the free rank must equal the
    dimension over a large prime, and each F_p dimension must follow from the
    integral summaries by universal coefficients.  Returns a list of
    mismatch messages (empty when everything agrees)."""
    problems = []
    summaries = [(s[0], list(s[1])) for s in summaries]
    n = len(summaries)
    if ring != "z":
        p = ring_prime(ring) or LARGE_PRIME
        for k in range(n):
            want = (betti[p][k] if k < len(betti[p]) else 0, [])
            if summaries[k] != want:
                problems.append(f"degree {k}: {summaries[k]} != {want}")
        return problems
    for k in range(n):
        want = betti[LARGE_PRIME][k] if k < len(betti[LARGE_PRIME]) else 0
        if summaries[k][0] != want:
            problems.append(
                f"degree {k}: free rank {summaries[k][0]} != {want}")
    for p in betti:
        if p == LARGE_PRIME:
            continue
        for k in range(n):
            free, torsion = summaries[k]
            shift = k + 1 if cohomological else k - 1
            other = summaries[shift][1] if 0 <= shift < n else []
            dim = (free + sum(1 for t in torsion if t % p == 0)
                   + sum(1 for t in other if t % p == 0))
            want = betti[p][k] if k < len(betti[p]) else 0
            if dim != want:
                problems.append(f"degree {k}: F_{p} dimension {dim} != {want}")
    return problems
