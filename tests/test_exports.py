"""Every name a ``multiway`` module lists in ``__all__`` resolves, so a
deleted definition cannot leave a stale export behind for ``import *``."""

import importlib
import pkgutil

import pytest

import multiway

MODULES = ["multiway", *(f"multiway.{m.name}" for m in pkgutil.iter_modules(multiway.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
