import json

from infranil.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 24
    assert sum(1 for l in lines if not l.startswith("heis")) == 13


def test_catalog_filter(capsys):
    code, out, _ = run(capsys, "catalog", "--filter", "heis")
    assert code == 0
    assert all(l.startswith("heis") for l in out.splitlines() if l.strip())
    code, out, _ = run(capsys, "catalog", "--filter", "nonexistent")
    assert code == 0
    assert out.strip() == ""


def test_catalog_json_roundtrip(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    data = json.loads(out)
    assert json.loads(json.dumps(data)) == data
    assert len(data["entries"]) == 24


def test_compute_klein_bottle(capsys):
    code, out, _ = run(
        capsys, "compute", "--manifold", "klein-bottle",
        "--param", "a=3", "--param", "b=5", "--param", "s=1/2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["nielsen_zeta"] == [{"poly": [1, -15], "exp": -1}, {"poly": [1, -5], "exp": 1}]
    assert data["nielsen_zeta_str"] == "(1 - 5*z) / (1 - 15*z)"
    assert data["index"] == 2 and data["p"] == 2 and data["n"] == 0
    assert data["nielsen_numbers"][:2] == [10, 200]
    assert data["sign_relations_ok"] is True
    # round trip
    assert json.loads(json.dumps(data)) == data


def test_compute_circle_identity_degree(capsys):
    code, out, _ = run(capsys, "compute", "--manifold", "circle", "--param", "d=1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["nielsen_zeta"] == []  # the constant product 1
    assert all(v == 0 for v in data["nielsen_numbers"])


def test_compute_hantzsche_wendt_identity_like(capsys):
    code, out, _ = run(
        capsys, "compute", "--manifold", "hantzsche-wendt",
        "--param", "a=1", "--param", "b=1", "--param", "c=1",
        "--param", "r=1/2", "--param", "s=1/2", "--param", "t=1/2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    # averaging oracle: every holonomy element fixes a direction, so each
    # det(I - A) vanishes and the whole sequence is zero
    assert data["nielsen_numbers"] == [0] * 40
    assert data["lefschetz_numbers"] == [0] * 40
    assert data["nielsen_zeta"] == []


def test_compute_constraint_violation_exit_code(capsys):
    code, _, err = run(
        capsys, "compute", "--manifold", "klein-bottle",
        "--param", "a=2", "--param", "b=5", "--param", "s=1/2",
    )
    assert code == 3
    assert "error" in err
    code, _, err = run(capsys, "compute", "--manifold", "heis-VIII",
                       "--param", "k=2", "--param", "a=1", "--param", "b=1")
    assert code == 3


def test_compute_unknown_manifold(capsys):
    code, _, err = run(capsys, "compute", "--manifold", "sphere", "--param", "d=1")
    assert code == 3


def test_compute_family_selection(capsys):
    code, out, _ = run(
        capsys, "compute", "--manifold", "klein-bottle", "--family", "3",
        "--param", "a=2", "--param", "b=4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == 3
    assert data["nielsen_zeta_str"] == "(1 - z) / (1 - 2*z)"


def test_compute_kmax_bounds(capsys):
    code, _, _ = run(capsys, "compute", "--manifold", "circle", "--param", "d=2",
                     "--kmax", "500")
    assert code == 3


def test_verify_tables_subset(tmp_path, capsys):
    # restrict the corpus to two manifolds to keep this test quick
    import infranil.selfmaps as sm

    full = json.load(open(sm.default_corpus_path()))
    small = {
        "schema": full["schema"],
        "manifolds": [m for m in full["manifolds"] if m["manifold"] in ("circle", "klein-bottle")],
    }
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    code, out, _ = run(capsys, "verify-tables", "--corpus", str(path), "--samples", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["families"] == 4


def test_verify_tables_detects_corruption(tmp_path, capsys):
    import infranil.selfmaps as sm

    full = json.load(open(sm.default_corpus_path()))
    small = {
        "schema": full["schema"],
        "manifolds": [m for m in full["manifolds"] if m["manifold"] == "klein-bottle"],
    }
    # corrupt one expected cell of family 1
    fam = small["manifolds"][0]["families"][0]
    fam["zeta"][0]["cells"]["2|ee"][0]["coeffs"] = ["1", "-(b + 2)"]
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    code, out, _ = run(capsys, "verify-tables", "--corpus", str(path), "--samples", "2", "--json")
    assert code == 4
    data = json.loads(out)
    assert data["failures"] == 1
    assert data["failing"][0]["family"] == "klein-bottle#1"


def test_verify_tables_zero_samples(capsys):
    code, out, _ = run(capsys, "verify-tables", "--samples", "0")
    assert code == 0
    assert "vacuous" in out


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    import infranil.selfmaps as sm

    full = json.load(open(sm.default_corpus_path()))
    small = {"schema": full["schema"],
             "manifolds": [m for m in full["manifolds"] if m["manifold"] == "circle"]}
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    monkeypatch.setenv("ZETA_CORPUS", str(path))
    code, out, _ = run(capsys, "verify-tables", "--samples", "1", "--json")
    assert code == 0
    assert json.loads(out)["families"] == 1


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "compute", "--manifold", "circle", "--param", "d:2")
    assert code == 3


def test_compute_invalid_map_exit_code(tmp_path, capsys):
    # a corpus whose constraints are too loose produces candidates that fail
    # the self-map equation: compute reports exit code 2
    import infranil.selfmaps as sm

    full = json.load(open(sm.default_corpus_path()))
    small = {"schema": full["schema"],
             "manifolds": [m for m in full["manifolds"] if m["manifold"] == "klein-bottle"]}
    fam = small["manifolds"][0]["families"][0]
    fam["constraints"] = []  # drop the parity conditions
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    code, _, err = run(capsys, "compute", "--manifold", "klein-bottle",
                       "--corpus", str(path),
                       "--param", "a=2", "--param", "b=5", "--param", "s=1/3")
    assert code == 2
    assert "validation" in err


def test_compute_json_schema_and_sign_relations(capsys):
    from infranil.fixedpoint import check_sign_relations
    from infranil.selfmaps import family_instantiate, load_corpus, sample_params

    keys = {
        "manifold", "family", "params", "kmax", "p", "n", "index", "case",
        "anosov_relation", "lefschetz_numbers", "nielsen_numbers", "lefschetz_zeta",
        "lefschetz_zeta_plus", "nielsen_zeta", "nielsen_zeta_str", "sign_relations_ok",
    }
    indices = set()
    for spec in load_corpus().families:
        if spec.manifold not in ("klein-bottle", "heis-II"):
            continue
        params = sample_params(spec, 1)[0]
        argv = ["compute", "--manifold", spec.manifold, "--family", str(spec.index),
                "--kmax", "25", "--json"]
        for name, value in params.items():
            argv += ["--param", f"{name}={value}"]
        code, out, _ = run(capsys, *argv)
        assert code == 0, spec.label
        data = json.loads(out)
        assert set(data) == keys
        assert len(data["nielsen_numbers"]) == 25
        cand = family_instantiate(spec, params)
        assert data["sign_relations_ok"] is check_sign_relations(cand, kmax=25).ok is True
        indices.add(data["index"])
    assert indices == {1, 2}
