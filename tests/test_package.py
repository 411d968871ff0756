"""The package's public surface: every exported name resolves."""

import somborlab


def test_all_names_resolve():
    missing = [name for name in somborlab.__all__ if not hasattr(somborlab, name)]
    assert missing == []
    assert len(set(somborlab.__all__)) == len(somborlab.__all__)


def test_star_import():
    namespace = {}
    exec("from somborlab import *", namespace)
    assert set(somborlab.__all__) <= set(namespace)
