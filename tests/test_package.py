"""The package's top level: every public name it exports resolves."""

import cleangraphs


def test_every_exported_name_resolves():
    missing = [name for name in cleangraphs.__all__ if not hasattr(cleangraphs, name)]
    assert missing == []
    assert len(set(cleangraphs.__all__)) == len(cleangraphs.__all__)
