"""The public export list stays importable."""

import kickedtop


def test_every_exported_name_resolves():
    missing = [name for name in kickedtop.__all__ if not hasattr(kickedtop, name)]
    assert not missing
    assert len(set(kickedtop.__all__)) == len(kickedtop.__all__)
