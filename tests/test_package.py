import trfnet


def test_every_exported_name_resolves_once():
    assert len(trfnet.__all__) == len(set(trfnet.__all__))
    for name in trfnet.__all__:
        assert getattr(trfnet, name, None) is not None, name
