"""The package's public names all resolve."""

from __future__ import annotations

import bmclab


def test_public_names_resolve():
    assert len(set(bmclab.__all__)) == len(bmclab.__all__)
    missing = [name for name in bmclab.__all__ if not hasattr(bmclab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from bmclab import *", namespace)
    assert set(bmclab.__all__) <= set(namespace)
