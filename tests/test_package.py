import runpy
import sys
import types

import pytest

import qscond


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from qscond import *", namespace)
    for name in qscond.__all__:
        assert namespace[name] is getattr(qscond, name)
    assert len(set(qscond.__all__)) == len(qscond.__all__)
    public = {
        name for name, value in vars(qscond).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qscond.__all__)


def test_module_entry_point_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qscond", "verify", "--n", "2", "--trials", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("qscond", run_name="__main__")
    assert exit_info.value.code == 0
    assert "inequality chains: 0 violations" in capsys.readouterr().out
