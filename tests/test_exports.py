"""Every name in a plurikp module's __all__ resolves and is listed once."""

import importlib
import pkgutil

import pytest

import plurikp

MODULES = [plurikp] + [
    importlib.import_module(f"plurikp.{info.name}")
    for info in pkgutil.iter_modules(plurikp.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_export_list_resolves_without_duplicates(module):
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
