import arcdesign


def test_every_exported_name_resolves():
    # the traced benchmark wraps each exported name with getattr(arcdesign, name)
    missing = [name for name in arcdesign.__all__ if not hasattr(arcdesign, name)]
    assert missing == []
    assert len(set(arcdesign.__all__)) == len(arcdesign.__all__)
