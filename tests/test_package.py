import mbem


def test_star_import_and_all_names_resolve():
    # a name left in __all__ after its object is deleted breaks the star import
    namespace = {}
    exec("from mbem import *", namespace)
    for name in mbem.__all__:
        assert namespace[name] is getattr(mbem, name)
