"""The package's public names: every export must still exist."""

import isogauss


def test_every_name_in_all_resolves():
    assert len(set(isogauss.__all__)) == len(isogauss.__all__)
    assert [name for name in isogauss.__all__
            if not hasattr(isogauss, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from isogauss import *", namespace)
    assert set(isogauss.__all__) <= set(namespace)
