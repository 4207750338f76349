import importlib

import vrprox as vp

REMOVED = ("PSI_INFINITY", "is_psi_infinite", "add_psi")


def test_every_exported_name_resolves_once():
    assert len(vp.__all__) == len(set(vp.__all__))
    assert [name for name in vp.__all__ if not hasattr(vp, name)] == []
    namespace = {}
    exec("from vrprox import *", namespace)
    assert set(vp.__all__) <= set(namespace)


def test_extended_value_marker_layer_is_gone():
    # psi's +inf is plain IEEE infinity; F = f + psi needs no helper.
    prox_module = importlib.import_module("vrprox.prox")
    for name in REMOVED:
        assert not hasattr(vp, name) and not hasattr(prox_module, name)
