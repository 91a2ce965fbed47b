"""Every name a module lists in __all__ exists, so `import *` never breaks."""

import pkgutil

import pytest

import petersburg

MODULES = ["petersburg"] + [
    f"petersburg.{m.name}" for m in pkgutil.iter_modules(petersburg.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})
