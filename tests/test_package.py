"""The package exports each layer module's public names, as the same objects."""

import inspect

import pytest

import operlax
from operlax import calculus, errors, evolution, multilinear, oscillator


@pytest.mark.parametrize("module", [calculus, evolution, multilinear, oscillator],
                         ids=lambda m: m.__name__)
def test_package_exports_every_name_in_all(module):
    assert [n for n in module.__all__ if getattr(operlax, n, None) is not getattr(module, n)] == []


def test_package_exports_every_exception_type():
    types = [v for v in vars(errors).values()
             if inspect.isclass(v) and v.__module__ == errors.__name__]
    assert len(types) == 6
    assert [t for t in types if getattr(operlax, t.__name__, None) is not t] == []
