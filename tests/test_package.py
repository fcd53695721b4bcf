import divknn


def test_every_exported_name_resolves():
    assert len(set(divknn.__all__)) == len(divknn.__all__)
    for name in divknn.__all__:
        assert hasattr(divknn, name), name


def test_removed_names_are_not_exported():
    for name in ("CandidatePool", "ExactScanOracle", "AlphaScanOracle"):
        assert name not in divknn.__all__
        assert not hasattr(divknn, name)
