"""Exact-integer toolkit for Heronian triangles and their sociable cycles."""

from heronian.core import (
    Classification,
    SxyzDecomposition,
    Triangle,
    classify,
    decompose,
    heron_area,
    is_heronian,
    isqrt,
    perfect_square_root,
    recompose,
)
from heronian.cycles import (
    ChainDirection,
    ChainEnd,
    ChainTrace,
    ConcreteCycle,
    amicable_pairs,
    closed_walks,
    find_cycles,
    predecessors,
    successors,
    trace_chain,
)
from heronian.enumeration import (
    area_perimeter_bound,
    deficient_triangles,
    equable_triangles,
    triangles_in_perimeter_range,
    triangles_with_area,
    triangles_with_perimeter,
)
from heronian.necklace import (
    CycleWord,
    count_words,
    enumerate_words,
    expand,
    replacement_family,
)

__version__ = "0.1.0"

__all__ = [
    "ChainDirection",
    "ChainEnd",
    "ChainTrace",
    "Classification",
    "ConcreteCycle",
    "CycleWord",
    "SxyzDecomposition",
    "Triangle",
    "amicable_pairs",
    "area_perimeter_bound",
    "classify",
    "closed_walks",
    "count_words",
    "decompose",
    "deficient_triangles",
    "enumerate_words",
    "equable_triangles",
    "expand",
    "find_cycles",
    "heron_area",
    "is_heronian",
    "isqrt",
    "perfect_square_root",
    "predecessors",
    "recompose",
    "replacement_family",
    "successors",
    "trace_chain",
    "triangles_in_perimeter_range",
    "triangles_with_area",
    "triangles_with_perimeter",
]
