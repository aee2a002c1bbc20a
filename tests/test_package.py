"""The package's public names: each is listed once, resolves to its module's
object, and importing the package loads none of its modules."""

import importlib
import json
from collections import Counter

import pytest

import reflexive_lab

NEW_MODULES = """
import json, sys
before = set(sys.modules)
import reflexive_lab
print(json.dumps(sorted(set(sys.modules) - before)))
"""

SUBMODULE_ATTRIBUTES = """
import json, sys
import reflexive_lab
print(json.dumps([
    getattr(reflexive_lab, module) is sys.modules["reflexive_lab." + module]
    for module in ("lattice", "linalg", "cli")
]))
"""

UNBOUND_BY_STAR_IMPORT = """
import json
from reflexive_lab import *
import reflexive_lab
print(json.dumps([name for name in reflexive_lab.__all__ if name not in globals()]))
"""


def child_output(python, code):
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_module(python):
    # no submodule, and so none of numpy, dataclasses or fractions
    assert child_output(python, NEW_MODULES) == ["reflexive_lab"]


def test_star_import_binds_every_name(python):
    assert child_output(python, UNBOUND_BY_STAR_IMPORT) == []


def test_every_exported_name_resolves():
    for module, names in reflexive_lab._EXPORTS.items():
        owner = importlib.import_module(f"reflexive_lab.{module}")
        for name in names:
            assert getattr(reflexive_lab, name) is getattr(owner, name), name


def test_submodules_resolve_as_attributes(python):
    assert child_output(python, SUBMODULE_ATTRIBUTES) == [True, True, True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'reflexive_lab' has no attribute 'nope'"):
        reflexive_lab.nope
    # the entry-point module runs the CLI on import, so it is no attribute
    assert not hasattr(reflexive_lab, "__main__")


def test_dir_covers_all():
    listed = set(dir(reflexive_lab))
    assert set(reflexive_lab.__all__) <= listed
    assert {"__version__", "lattice", "linalg", "cli"} <= listed


def test_exports_listed_once():
    listed = Counter(name for names in reflexive_lab._EXPORTS.values() for name in names)
    assert [name for name, n in listed.items() if n > 1] == []
    assert reflexive_lab.__all__ == sorted(listed)
