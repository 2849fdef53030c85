import importlib

import pytest

import tropnorm
from tropnorm import _EXPORTS


def test_exports_are_the_submodule_objects():
    for name in tropnorm.__all__:
        owner = importlib.import_module(f"tropnorm.{_EXPORTS[name]}")
        assert getattr(tropnorm, name) is getattr(owner, name), name


def test_dir_lists_the_exports():
    names = sorted(dir(tropnorm))
    assert "__all__" in names
    assert set(tropnorm.__all__) <= set(names)


def test_star_import_binds_every_name():
    scope = {}
    exec("from tropnorm import *", scope)
    assert set(tropnorm.__all__) <= scope.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropnorm.no_such_name
    with pytest.raises(ImportError):
        exec("from tropnorm import no_such_name", {})


def test_cli_names_are_shared_with_their_modules():
    from tropnorm import core, graphs, search

    assert search.SearchInconclusive is core.SearchInconclusive
    assert graphs.GRAPH_KINDS is core.GRAPH_KINDS
    assert (graphs.ORTHO, graphs.VNL, graphs.WNL) == core.GRAPH_KINDS
