"""The fixture complexes, by the names of their files in `fixtures/`.

`lochom.fixtures` keeps the complexes the demos read (`circle3`, `rp2_six`,
`hexagon`); the three only the tests read are defined here.
"""

from lochom.complexes import SimplicialComplex
from lochom.fixtures import circle3, hexagon, rp2_six


def triangle():
    """The full 2-simplex on 0,1,2."""
    return SimplicialComplex([[0, 1, 2]])


def sphere2():
    """Boundary of the 3-simplex: the minimal simplicial 2-sphere."""
    return SimplicialComplex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def bowtie():
    """Two triangles glued at vertex 0: pure 2-dimensional, link of 0 is
    disconnected, so not locally top-concentrated there."""
    return SimplicialComplex([[0, 1, 2], [0, 3, 4]])


FIXTURES = {
    "c3": circle3,
    "delta2": triangle,
    "t4": sphere2,
    "bowtie": bowtie,
    "rp6": rp2_six,
    "hex": hexagon,
}
