"""The public export list stays importable."""

import kickedtop


def test_every_exported_name_resolves():
    missing = [name for name in kickedtop.__all__ if not hasattr(kickedtop, name)]
    assert not missing
    assert len(set(kickedtop.__all__)) == len(kickedtop.__all__)


def test_one_error_class_per_exit_code():
    errors = [
        name
        for name in kickedtop.__all__
        if isinstance(getattr(kickedtop, name), type)
        and issubclass(getattr(kickedtop, name), Exception)
    ]
    assert sorted(errors) == ["DomainError", "KickedTopError", "NumericalError"]
