"""Small reference complexes that the demos build."""

from .complexes import SimplicialComplex


def circle3():
    """Triangle boundary: the minimal simplicial circle on vertices 0,1,2."""
    return SimplicialComplex([[0, 1], [1, 2], [0, 2]])


def rp2_six():
    """The classical 6-vertex triangulation of the real projective plane."""
    faces = [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
             [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    return SimplicialComplex(faces)


def hexagon():
    """Six-cycle on vertices 0..5."""
    return SimplicialComplex([[i, (i + 1) % 6] for i in range(6)])


def hexagon_cover_map():
    """Vertex map of the simplicial double cover hexagon -> circle3."""
    return {i: i % 3 for i in range(6)}
