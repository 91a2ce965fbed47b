"""Every name a module lists in __all__ exists, so `import *` never breaks."""

import pkgutil

import pytest

import petersburg
from petersburg import limitlaw, stpdist

MODULES = ["petersburg"] + [
    f"petersburg.{m.name}" for m in pkgutil.iter_modules(petersburg.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def test_package_names_resolve():
    # limit-law and Monte Carlo names load their modules on first access
    for name in petersburg.__all__:
        assert getattr(petersburg, name) is not None, name
    assert not hasattr(petersburg, "no_such_name")


def test_limitlaw_reexports_closed_form_scalars():
    # limitlaw imports only the stpdist names it uses; the rest live in stpdist alone
    for name in ("series_center", "a_const", "InversionError"):
        assert getattr(limitlaw, name) is getattr(stpdist, name), name
    for name in ("centering", "centering_closed", "xi_and_f", "chernoff_h", "chernoff_bound"):
        assert not hasattr(limitlaw, name), name
