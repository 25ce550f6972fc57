"""Section duals and stabilization of restriction systems.

Builds the top-degree local homology sheaf on the three-vertex circle,
compares degree-zero cosheaf homology against the dual of its global
sections, exhausts the circle by arcs to verify that the dual is compactly
determined, and contrasts a restriction system whose images never stabilize
over the integers with one that does.

Run with:  python3 demos/sections_and_semistability.py
"""

from lochom import (QQ, ZZ, LocalContext, build_restriction_system, circle3,
                    compactly_determined_dual, doubling_system, lf_h0_check,
                    semistability_check)


def main():
    ctx = LocalContext(circle3(), ZZ)
    lf = lf_h0_check(ctx, None, 1)
    print("degree-zero cosheaf homology:", lf["h0"])
    print("rank of the section dual:   ", lf["dual_rank"])
    print("comparison is an isomorphism:", lf["iso"])

    print("\n-- exhausting the circle by arcs --")
    system, gammas = build_restriction_system(
        ctx, None, 1, [[0], [0, 1], [0, 1, 2]])
    rep = compactly_determined_dual(lf, gammas, semistability_check(system))
    print("section ranks along the filtration:", rep["dual_ranks"])
    print("restriction system semistable:", rep["semistable"])
    print("colimit rank %d matches the dual: %s"
          % (rep["colimit_rank"], rep["verdict"]))

    print("\n-- multiplication by 2, six stages --")
    for ring, name in ((ZZ, "Z"), (QQ, "Q")):
        rep = semistability_check(doubling_system(ring, 6))
        print("  over %s: semistable = %s" % (name, rep["semistable"]))
    print("over Z the image ranks agree but the lattices shrink forever;")
    print("over Q every map is invertible and the system stabilizes at once")


if __name__ == "__main__":
    main()
