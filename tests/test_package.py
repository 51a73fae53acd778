import cfmoments
from cfmoments import cfrac, pipeline, ring, series, triangle


def test_all_lists_every_submodule_export_once():
    assert len(cfmoments.__all__) == len(set(cfmoments.__all__))
    for module in (ring, triangle, series, cfrac, pipeline):
        for name in module.__all__:
            exported = "matrix_mul" if module is triangle and name == "mul" else name
            assert exported in cfmoments.__all__
            assert getattr(cfmoments, exported) is getattr(module, name)
    assert not hasattr(cfmoments, "mul")
