"""The lazy package re-exports: every public name keeps resolving."""

import importlib
import sys

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.explore",
    "repro.flows",
    "repro.map",
    "repro.obs",
    "repro.opt",
    "repro.place",
    "repro.verify",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_exports_resolve_to_the_submodule_objects(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        resolved = {attr: getattr(package, attr) for attr in package.__all__}
        submodules = [
            module for module_name, module in list(sys.modules.items())
            if module_name.startswith(name + ".")
        ]
        for attr, value in resolved.items():
            assert any(vars(module).get(attr) is value for module in submodules), (
                f"{name}.{attr} is not the object a submodule binds"
            )
            assert attr in listed, f"dir({name}) misses {attr}"

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module {name!r} has no attribute"):
            package.no_such_name


def test_star_import_binds_every_name():
    from repro import obs

    namespace = {}
    exec("from repro.obs import *", namespace)
    assert sorted(set(obs.__all__) - set(namespace)) == []
