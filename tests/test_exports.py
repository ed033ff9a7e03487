import types

import wpscoh


def test_every_exported_name_resolves_to_a_library_value():
    for name in wpscoh.__all__:
        value = getattr(wpscoh, name)
        assert not isinstance(value, types.ModuleType), name


def test_every_public_value_is_exported():
    public = {
        name
        for name, value in vars(wpscoh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(wpscoh.__all__)  # __version__ is private by its name


def test_star_import():
    namespace = {}
    exec("from wpscoh import *", namespace)
    assert set(wpscoh.__all__) <= namespace.keys()
