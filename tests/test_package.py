import types

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
