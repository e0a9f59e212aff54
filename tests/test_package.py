import flatperm


def test_all_names_resolve():
    missing = [name for name in flatperm.__all__ if not hasattr(flatperm, name)]
    assert missing == []
