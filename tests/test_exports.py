"""The package's lazy exports: each name in ``steerbound._EXPORTS``, and each
submodule, is read from its home module on first use and then kept."""

import importlib
from pathlib import Path

import pytest

import steerbound

NAMES = [(module, name) for module, names in steerbound._EXPORTS.items() for name in (module, *names)]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_home_modules_object_and_kept(module, name, monkeypatch):
    home = importlib.import_module(f"steerbound.{module}")
    monkeypatch.delitem(vars(steerbound), name, raising=False)  # as before its first use
    value = getattr(steerbound, name)
    assert value is (home if name == module else getattr(home, name))
    assert vars(steerbound)[name] is value  # the next lookup does not reach __getattr__


def test_every_submodule_is_in_the_table():
    modules = {path.stem for path in Path(steerbound.__file__).parent.glob("*.py")}
    assert set(steerbound._EXPORTS) == modules - {"__init__"}


def test_dir_lists_every_name():
    assert {name for _, name in NAMES} <= set(dir(steerbound))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        steerbound.no_such_name
    with pytest.raises(ImportError):
        from steerbound import no_such_name  # noqa: F401
    assert "no_such_name" not in vars(steerbound)
