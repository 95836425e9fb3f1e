"""Keep the docstring examples honest."""

import doctest

import clans.core
import clans.patterns
import clans.poset
import clans.springer
import clans.verify


def test_module_doctests():
    for module in (clans.core, clans.patterns, clans.poset, clans.springer, clans.verify):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
