"""The package's exported names: each resolves, and the package exports
exactly what its layer modules export, so a deleted function cannot stay
exported."""

import importlib

import ecomplex
from ecomplex import errors

LAYERS = ("matrix", "metrics", "model", "validation", "fileio")


def _module(name):
    return importlib.import_module(f"ecomplex.{name}")


def test_every_exported_name_resolves():
    for module in (ecomplex, *map(_module, LAYERS + ("cli",))):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_the_layer_lists():
    layer_names = {name for layer in LAYERS for name in _module(layer).__all__
                   if not (name.startswith("BENCHMARK_") and name.endswith("_COEFS"))}
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, errors.EcomplexError)}
    assert len(set(ecomplex.__all__)) == len(ecomplex.__all__)
    assert set(ecomplex.__all__) == layer_names | error_classes | {"__version__"}
