import types

import dpkalman


def test_every_exported_name_resolves():
    assert [name for name in dpkalman.__all__ if not hasattr(dpkalman, name)] == []
    assert len(set(dpkalman.__all__)) == len(dpkalman.__all__)


def test_every_public_import_is_exported():
    public = {
        name for name, value in vars(dpkalman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dpkalman.__all__)) == []
