import qptycho


def test_public_names_resolve_once():
    names = qptycho.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qptycho, name, None) is not None, name
