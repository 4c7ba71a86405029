import swapinsert


def test_every_public_name_resolves():
    assert len(set(swapinsert.__all__)) == len(swapinsert.__all__)
    for name in swapinsert.__all__:
        assert getattr(swapinsert, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from swapinsert import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(swapinsert.__all__)
