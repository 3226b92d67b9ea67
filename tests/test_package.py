"""The public surface of the package."""

import tmcount


def test_star_import_succeeds():
    namespace = {}
    exec("from tmcount import *", namespace)
    assert set(tmcount.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(tmcount.__all__) == len(set(tmcount.__all__))
