"""Run the docstring examples of every curcat module."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import curcat

MODULES = sorted(info.name for info in pkgutil.iter_modules(curcat.__path__, "curcat."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    module = importlib.import_module(name)
    failed, _ = doctest.testmod(module)
    assert failed == 0
