"""The package's public names: a deleted or renamed name must not stay
exported."""

from collections import Counter

import reflexive_lab


def test_every_exported_name_resolves():
    missing = [name for name in reflexive_lab.__all__ if not hasattr(reflexive_lab, name)]
    assert missing == []


def test_exports_listed_once():
    repeated = [name for name, n in Counter(reflexive_lab.__all__).items() if n > 1]
    assert repeated == []
