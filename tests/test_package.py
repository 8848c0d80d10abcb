import vortexbell


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from vortexbell import *", namespace)
    assert len(set(vortexbell.__all__)) == len(vortexbell.__all__)
    missing = [name for name in vortexbell.__all__ if name not in namespace]
    assert not missing
    for name in vortexbell.__all__:
        assert namespace[name] is getattr(vortexbell, name)
