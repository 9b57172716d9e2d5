import json
import random
import time

import pytest

from infranil.catalog import catalog_ids
from infranil.cli import build_parser, main
from infranil.selfmaps import load_corpus, sample_params


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


def test_compute_parameter_outside_domain_exit_code(capsys):
    # iy is an int; the family's constraints check only a..d
    code, _, err = run(
        capsys, "compute", "--manifold", "heis-I", "--family", "1", "--param", "k=6",
        "--param", "a=2", "--param", "b=-2", "--param", "c=5", "--param", "d=-1",
        "--param", "ix=3", "--param", "iy=0.5", "--param", "r=0", "--param", "s=-3/4",
        "--param", "t=2",
    )
    assert code == 3
    assert err == "error: heis-I#1: parameter iy = 1/2 is not in int\n"


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


def test_verify_tables_negative_samples(capsys):
    code, out, err = run(capsys, "verify-tables", "--samples", "-1")
    assert code == 3
    assert out == "" and "--samples" in err


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
    fam["constraints"] = []  # drop the parity conditions, in the domains too
    for param in fam["params"]:
        param["domain"] = "rational"
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


def test_compute_large_entries(capsys):
    """Parameters far beyond the corpus samples (the constant terms are large
    primes or have large prime factors) still give the exact zetas."""
    from infranil.exprs import eval_rational, parse_rational
    from infranil.matrices import QMatrix
    from infranil.polynomials import QPoly
    from infranil.selfmaps import expected_zeta_cell, load_corpus, resolve_params
    from infranil.series import RatFuncProduct, rfp_equal
    from infranil.zeta import exterior_closed_form

    params = {"c": "7", "a": "3000", "b": "2999"}
    argv = ["compute", "--manifold", "flat3-8", "--family", "1", "--json"]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["sign_relations_ok"] is True
    spec = next(f for f in load_corpus().families if f.label == "flat3-8#1")
    env = resolve_params(spec, {n: parse_rational(params.get(n, "0")) for n, _ in spec.params})
    cell = expected_zeta_cell(spec, env, data["index"], data["p"], data["n"])
    expected = RatFuncProduct.from_factors(
        (QPoly([eval_rational(c, env) for c in f["coeffs"]]), f["exp"]) for f in cell
    )
    assert rfp_equal(RatFuncProduct.from_json(data["nielsen_zeta"]), expected)
    assert data["nielsen_zeta_str"] == (
        "(1 - 26991002*z + 26991001*z^2) / (1 - 188937014*z + 1322559049*z^2)"
    )

    m11, m22 = 123456791, 1000000007
    code, out, _ = run(
        capsys, "compute", "--manifold", "torus-3", "--param", f"m11={m11}",
        "--param", f"m22={m22}", "--param", "m33=1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["sign_relations_ok"] is True
    closed = exterior_closed_form(QMatrix([[m11, 0, 0], [0, m22, 0], [0, 0, 1]]))
    assert rfp_equal(RatFuncProduct.from_json(data["lefschetz_zeta"]), closed)


def test_reused_parser_leaks_no_state(capsys):
    first = ("compute", "--manifold", "klein-bottle", "--param", "a=3", "--param", "b=5",
             "--json")
    code1, out1, err1 = run(capsys, *first)
    code2, out2, _ = run(capsys, "compute", "--manifold", "torus-2", "--json")
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--param", "a=3"])  # --manifold is required
    assert exc.value.code == 2
    assert "--manifold" in capsys.readouterr().err
    code4, out4, err4 = run(capsys, *first)
    assert (code1, code2, code4) == (0, 0, 0)
    assert out4 == out1 and err4 == err1
    params = json.loads(out1)["params"]
    assert (params["a"], params["b"]) == ("3", "5") and set(params) - {"a", "b"} <= {"r", "s"}
    assert json.loads(out2)["manifold"] == "torus-2"
    parser = build_parser()
    assert parser is build_parser()
    assert parser.parse_args(["compute", "--manifold", "circle", "--param", "d=2"]).param == ["d=2"]
    assert parser.parse_args(["compute", "--manifold", "circle"]).param is None


FUZZ_CASES = 200
FUZZ_SECONDS_PER_CALL = 10.0
GOOD_RATIONALS = ["0", "1", "-1", "2", "-3", "1/2", "-3/4", "5/3", "12", "0.5"]
BAD_RATIONALS = ["1/0", "x", "", "nan", "inf", "1//2", "--1"]
KMAX_VALUES = ["1", "2", "7", "40", "200", "0", "-3", "201", "1000", "ten"]  # 5 in range


def fuzz_argv(rng, corpus, ids):
    """One `zeta` argv drawn from catalog ids, family indices, good and bad
    rationals and --kmax values inside and outside [1, 200]."""
    if rng.random() < 0.05:
        return ["catalog", "--filter", rng.choice(ids)[:4]] + (["--json"] * rng.randint(0, 1))
    manifold = rng.choice(ids + ["moebius", "heis-I ", ""])
    argv = ["compute"]
    if rng.random() < 0.97:
        argv += ["--manifold", manifold]
    families = corpus.for_manifold(manifold)
    params = {}
    if families and rng.random() < 0.8:
        spec = rng.choice(families)
        argv += ["--family", str(spec.index)]
        params = sample_params(spec, 1, rng.randrange(100))[0]
    elif rng.random() < 0.5:
        argv += ["--family", rng.choice(["0", "99", "-1", "one"])]
    if rng.random() < 0.1:
        params["q"] = "1"
    for name, value in params.items():
        if rng.random() < 0.1:
            continue
        if rng.random() < 0.2:
            value = rng.choice(GOOD_RATIONALS if rng.random() < 0.7 else BAD_RATIONALS)
        argv += ["--param", f"{name}={value}" if rng.random() < 0.98 else name + value]
    if rng.random() < 0.5:
        argv += ["--kmax", rng.choice(KMAX_VALUES if rng.random() < 0.3 else KMAX_VALUES[:5])]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def run_fuzz_call(capsys, argv):
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, captured.err, elapsed


def test_cli_fuzz_exit_codes_and_replay(capsys):
    rng = random.Random(20131)
    ids = catalog_ids()
    cases = [fuzz_argv(rng, load_corpus(), ids) for _ in range(FUZZ_CASES)]
    results = []
    for argv in cases:
        code, out, err, elapsed = run_fuzz_call(capsys, argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        assert elapsed < FUZZ_SECONDS_PER_CALL, (argv, elapsed)
        results.append((code, out, err))
    codes = {c for c, _, _ in results}
    assert {0, 2, 3} <= codes
    order = list(range(FUZZ_CASES))
    rng.shuffle(order)
    for i in order:
        code, out, err, _ = run_fuzz_call(capsys, cases[i])
        assert (code, out, err) == results[i], cases[i]
