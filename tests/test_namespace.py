import pytest

import heronian
from heronian import core, cycles, enumeration, necklace

# the root names before the root re-exported each module's __all__
ROOT_NAMES = {
    core: ["Classification", "SxyzDecomposition", "Triangle", "classify", "decompose",
           "heron_area", "is_heronian", "isqrt", "perfect_square_root", "recompose"],
    cycles: ["ChainDirection", "ChainEnd", "ChainTrace", "ConcreteCycle", "amicable_pairs",
             "closed_walks", "find_cycles", "predecessors", "successors", "trace_chain"],
    enumeration: ["area_perimeter_bound", "deficient_triangles", "equable_triangles",
                  "triangles_in_perimeter_range", "triangles_with_area",
                  "triangles_with_perimeter"],
    necklace: ["CycleWord", "count_words", "enumerate_words", "expand", "replacement_family"],
}


def test_root_all_is_the_union_of_the_module_lists():
    modules = (core, cycles, enumeration, necklace)
    assert set(heronian.__all__) == {name for m in modules for name in m.__all__}
    assert len(heronian.__all__) == len(set(heronian.__all__))
    assert {"canonical_rotation", "TRIANGLE_FOR_SYMBOL"} <= set(heronian.__all__)


@pytest.mark.parametrize("module, name", [
    pytest.param(m, name, id=name) for m, names in ROOT_NAMES.items() for name in names
])
def test_root_names_are_the_module_objects(module, name):
    assert getattr(heronian, name) is getattr(module, name)
    assert name in heronian.__all__
