"""The package's public names."""

import elliptic_inclusions


def test_every_public_name_resolves_and_is_listed_once():
    names = elliptic_inclusions.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(elliptic_inclusions, n)] == []
