"""A tour of the six-vertex projective plane.

Walks through the exact-arithmetic pipeline on the minimal triangulation of
the real projective plane: simplicial homology with torsion, local homology
stalks, the Cohen-Macaulay verdict, and how the duality verdict changes
between integral and mod-2 coefficients.

Run with:  python3 demos/tour_projective_plane.py
"""

from lochom import (GF, ZZ, LocalContext, cm_check, rp2_six,
                    simplicial_chain_complex, verify_duality)


def main():
    X = rp2_six()
    print("vertices:", X.order)
    print("top simplices:", sorted(X.simplices(2)))

    print("\n-- integral homology --")
    chain = simplicial_chain_complex(X, ZZ)
    for k in range(3):
        print("  H_%d = %s" % (k, chain.homology(k).rank_summary))

    print("\n-- local homology stalks at a vertex and an edge --")
    local = LocalContext(X, ZZ)
    for s in ((0,), (0, 1)):
        print("  at %s: %s" % (s, local.summaries(s)))

    rep = cm_check(X, None, 2, ZZ)
    print("\n-- locally Cohen-Macaulay over Z:", rep["locally_cm"])
    print("-- Cohen-Macaulay over Z:", rep["cm"],
          " (reduced H_1 has 2-torsion)")

    print("\n-- duality, item 1ai --")
    for ring, name in ((ZZ, "Z"), (GF(2), "F_2")):
        rep = verify_duality(X, None, "1ai", ring)
        dims = {l: rep["degrees"][l]["source"] for l in sorted(rep["degrees"])}
        print("  over %s: verdict %s, cohomology %s"
              % (name, rep["verdict"], dims))
    print("\nthe 2-torsion in H_1 is carried through the degree-1 square")
    print("integrally, and becomes an honest one-dimensional space mod 2")


if __name__ == "__main__":
    main()
