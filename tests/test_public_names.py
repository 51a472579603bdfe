import importlib

import rackqm

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
