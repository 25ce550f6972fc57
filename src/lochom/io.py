"""File formats for simplicial maps and filtrations.

Complex and subcomplex files live next to the complex type itself; this
module covers the remaining text formats: vertex maps (`map: v -> w` lines)
and filtrations (repeated `stage: v1 v2 ...` lines).  `#` starts a comment
everywhere.
"""

from .complexes import _parse_token, _strip
from .simplicialmaps import SimplicialMap


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


def parse_filtration(text):
    """Filtration file: repeated `stage: v1 v2 ...` lines, one per stage, in
    increasing order."""
    stages = []
    for line, raw in _strip(text):
        if not line.startswith("stage:"):
            raise ValueError(f"unrecognized line {raw!r}")
        stages.append([_parse_token(t) for t in line[len("stage:"):].split()])
    if not stages:
        raise ValueError("filtration file declares no stages")
    return stages
