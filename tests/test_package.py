import infranil


def test_all_names_resolve_once():
    names = infranil.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(infranil, n)]
    assert missing == []


def test_removed_zeta_entry_points_stay_gone():
    for name in ("lefschetz_zeta", "nielsen_zeta_direct", "nielsen_zeta_structural"):
        assert name not in infranil.__all__
        assert not hasattr(infranil, name) and not hasattr(infranil.zeta, name)
