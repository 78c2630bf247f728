import importlib

import pytest

MODULES = ["letcc.baselines", "letcc.cli", "letcc.coding", "letcc.experiments",
           "letcc.kernel", "letcc.points", "letcc.sim", "letcc.spline", "letcc.streams"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
