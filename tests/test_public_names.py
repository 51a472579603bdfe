import dataclasses
import importlib
import inspect

import rackqm
from rackqm.certify import boundedness_refutation
from rackqm.free_product import free_rack
from rackqm.quasimorphism import HomogeneousEstimate, Sigma, sign_family
from rackqm.racks import builtin_racks

MODULES = (
    "words",
    "racks",
    "adjoint",
    "free_product",
    "sampling",
    "quasimorphism",
    "cochain",
    "certify",
    "linalg",
)
SUBMODULES = MODULES + ("cli",)


def test_the_package_exposes_exactly_the_modules_public_names():
    # one list per module, no name in two of them, none shadowing a submodule
    declared: dict[str, object] = {}
    for name in MODULES:
        module = importlib.import_module(f"rackqm.{name}")
        for public in module.__all__:
            assert public not in declared and public not in SUBMODULES, (name, public)
            declared[public] = getattr(module, public)
    exposed = {n for n in vars(rackqm) if not n.startswith("_") and n not in SUBMODULES}
    assert exposed == set(declared)
    for public, value in declared.items():
        assert getattr(rackqm, public) is value, public


def test_retired_inputs_stay_retired():
    # no caller set Sigma.indicator's value, builtin_racks' max_size or
    # boundedness_refutation's ns; the defect bound is radius * exponent
    assert list(inspect.signature(Sigma.indicator).parameters) == ["k"]
    assert list(inspect.signature(builtin_racks).parameters) == []
    assert list(inspect.signature(boundedness_refutation).parameters) == ["family"]
    fields = [f.name for f in dataclasses.fields(HomogeneousEstimate)]
    assert fields == ["center", "radius", "exponent"]
    assert not hasattr(sign_family(free_rack(["a", "b"])), "_by_factor")
