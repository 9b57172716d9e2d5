import contextlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

from infranil.catalog import catalog_ids
from infranil.cli import build_parser, main
from infranil.exprs import parse_rational
from infranil.selfmaps import load_corpus, sample_params


def packaged_corpus():
    return json.loads(resources.files("infranil.data").joinpath("families.json").read_text())


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


def test_compute_no_family_admits_names_why(capsys):
    """Without --family and --param k, a missing catalog parameter defaults
    to the least member of its domain (k = 1 on heis-I, 2 on heis-II), as
    `zeta catalog` lists the entry, and any other missing parameter to 0.
    When no family admits the parameters, the error keeps its prefix and
    names the first family's failure."""
    for manifold, k in (("heis-I", "1"), ("heis-II", "2")):
        code, out, err = run(capsys, "compute", "--manifold", manifold, "--json")
        assert (code, err) == (0, ""), manifold
        data = json.loads(out)
        assert data["params"]["k"] == k
        assert all(v == "0" for n, v in data["params"].items() if n != "k"), data["params"]
    code, _, err = run(capsys, "compute", "--manifold", "heis-I", "--param", "k=2",
                       "--param", "ix=1/2")
    assert code == 3
    assert err == ("error: no family of heis-I accepts parameters ['ix', 'k']; "
                   "heis-I#1: parameter ix = 1/2 is not in int\n")


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
    full = packaged_corpus()
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
    full = packaged_corpus()
    small = {
        "schema": full["schema"],
        "manifolds": [m for m in full["manifolds"] if m["manifold"] == "klein-bottle"],
    }
    # corrupt one expected cell of family 1
    fam = small["manifolds"][0]["families"][0]
    fam["zeta"][0]["products"]["2"][0]["coeffs"] = ["1", "-(b + 2)"]
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    code, out, _ = run(capsys, "verify-tables", "--corpus", str(path), "--samples", "2", "--json")
    assert code == 4
    data = json.loads(out)
    assert data["failures"] == 1
    assert data["failing"][0]["family"] == "klein-bottle#1"


def test_verify_tables_zero_samples(capsys):
    code, out, err = run(capsys, "verify-tables", "--samples", "0")
    assert code == 0
    assert "vacuous" in err and out == ""
    code, out, err = run(capsys, "verify-tables", "--samples", "0", "--json")
    assert code == 0 and "vacuous" in err
    assert json.loads(out) == {"families": 0, "instances": 0, "failures": 0, "failing": []}


def test_verify_tables_negative_samples(capsys):
    code, out, err = run(capsys, "verify-tables", "--samples", "-1")
    assert code == 3
    assert out == "" and "--samples" in err


def test_corpus_env_override(tmp_path, capsys, monkeypatch):
    full = packaged_corpus()
    small = {"schema": full["schema"],
             "manifolds": [m for m in full["manifolds"] if m["manifold"] == "circle"]}
    path = tmp_path / "families.json"
    path.write_text(json.dumps(small))
    monkeypatch.setenv("ZETA_CORPUS", str(path))
    code, out, _ = run(capsys, "verify-tables", "--samples", "1", "--json")
    assert code == 0
    assert json.loads(out)["families"] == 1


def test_malformed_corpus_exits_4_with_one_error_line(tmp_path, capsys):
    """A corpus file of the wrong shape is a corpus error for every command
    that reads it: exit 4 and one `error:` line naming what is wrong.  A
    zeta variant and every parameter domain are checked when the corpus
    loads, so a bad product or guard never reaches `expected_zeta_cell`, and
    a bad domain never reaches `in_domain` or `domain_values`."""
    full = packaged_corpus()
    circle = next(m for m in full["manifolds"] if m["manifold"] == "circle")
    factor = circle["families"][0]["zeta"][0]["products"]["1"][0]

    def variant(key, value):
        block = json.loads(json.dumps(circle))
        block["families"][0]["zeta"][0][key] = value
        return {"manifolds": [block]}

    bad_factor = 'not a list of {"coeffs": list, "exp": int} factors'
    no_params = json.loads(json.dumps(circle))
    del no_params["families"][0]["params"]
    no_products = json.loads(json.dumps(circle))
    del no_products["families"][0]["zeta"][0]["products"]
    index_3 = json.loads(json.dumps(circle))
    index_3["families"][0]["zeta"][0]["products"]["3"] = []
    v1 = json.loads(json.dumps(circle))
    v1["families"][0]["zeta"] = [{"cells": {"1|ee": v1["families"][0]["zeta"][0]["products"]["1"]}}]
    corpora = {
        "empty object": ({}, "missing key 'manifolds'"),
        "family without params": ({"manifolds": [no_params]}, "missing key 'params'"),
        "top-level list": ([circle], "wrong shape"),
        "unknown manifold": ({"manifolds": [dict(circle, manifold="circle-9")]},
                             "'circle-9' is not in the catalog"),
        "variant without products": ({"manifolds": [no_products]}, "missing key 'products'"),
        "product of index 3": ({"manifolds": [index_3]}, "product of index '3'"),
        "v1 cells": ({"schema": "infranil-families-v1", "manifolds": [v1]},
                     "missing key 'products'"),
        "factor without coeffs": (variant("products", {"1": [{"exp": 1}]}), bad_factor),
        "coeffs not a list": (variant("products", {"1": [dict(factor, coeffs="1 - d")]}),
                              bad_factor),
        "product not a list": (variant("products", {"1": factor}), bad_factor),
        "factor not an object": (variant("products", {"1": ["1 - d"]}), bad_factor),
        "string exponent": (variant("products", {"1": [dict(factor, exp="1")]}), bad_factor),
        "bool exponent": (variant("products", {"1": [dict(factor, exp=True)]}), bad_factor),
        "float exponent": (variant("products", {"1": [dict(factor, exp=1.0)]}), bad_factor),
        "guard not a string": (variant("guard", 1), "guard 1, not a string"),
    }
    cases = [(what, data, message, "circle") for what, (data, message) in corpora.items()]
    for manifold in ("circle", "klein-bottle"):
        block = next(m for m in full["manifolds"] if m["manifold"] == manifold)
        for domain in ("int_mod:x:1", "int_mod:4", "int_multiple:0", "int_pos_mod:0:1",
                       "shift:abc", "bogus"):
            bad = json.loads(json.dumps(block))
            bad["families"][0]["params"][0]["domain"] = domain
            message = (f"unknown parameter domain {domain!r}" if domain == "bogus"
                       else f"parameter domain {domain!r} has a bad argument")
            cases.append((f"domain {domain}", {"manifolds": [bad]},
                          f"malformed corpus: {manifold}#1: {message}", manifold))
    path = tmp_path / "families.json"
    for what, data, message, manifold in cases:
        path.write_text(json.dumps(data))
        param = "d=2" if manifold == "circle" else "a=1"
        compute = ["compute", "--manifold", manifold, "--param", param]
        for argv in (["catalog"], compute, compute + ["--family", "1"],
                     ["verify-tables", "--samples", "1"]):
            code, out, err = run(capsys, *argv, "--corpus", str(path))
            assert (code, out) == (4, ""), (what, argv, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (what, argv, err)
            assert message in err and "Traceback" not in err, (what, argv, err)


def test_zero_to_a_negative_power_in_a_constraint_exits_3(tmp_path, capsys):
    """A corpus constraint that raises 0 to a negative power rejects the
    parameters like a division by zero: exit 3 and one `error:` line, no
    traceback."""
    full = packaged_corpus()
    circle = next(m for m in full["manifolds"] if m["manifold"] == "circle")
    circle["families"][0]["constraints"] = ["d**-1 != 7"]
    path = tmp_path / "families.json"
    path.write_text(json.dumps({"schema": full["schema"], "manifolds": [circle]}))
    code, out, err = run(capsys, "compute", "--corpus", str(path), "--manifold", "circle",
                         "--family", "1", "--param", "d=0", "--param", "r=0")
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "division by zero in expression" in err and "Traceback" not in err
    code, _, err = run(capsys, "compute", "--corpus", str(path), "--manifold", "circle",
                       "--family", "1", "--param", "d=2", "--param", "r=0")
    assert code == 0, err


def test_deeply_nested_corpus_expression_exits_3(tmp_path, capsys):
    """A corpus expression nested too deeply for the parser (circle#1's
    translation "r" followed by 3,000 "+0") is a bad expression: `compute`
    exits 3 with one `error:` line under 300 characters, and
    `verify-tables` reports the family, each with no traceback."""
    full = packaged_corpus()
    circle = next(m for m in full["manifolds"] if m["manifold"] == "circle")
    fam = next(f for f in circle["families"] if f["index"] == 1)
    fam["translation"] = ["r" + "+0" * 3000]
    path = tmp_path / "families.json"
    path.write_text(json.dumps({"schema": full["schema"], "manifolds": [circle]}))
    code, out, err = run(capsys, "compute", "--corpus", str(path), "--manifold", "circle",
                         "--param", "d=2", "--param", "r=1/2")
    assert (code, out) == (3, ""), err[-300:]
    assert err.startswith("error: ") and err.count("\n") == 1, err[-300:]
    assert "bad expression" in err and "Traceback" not in err
    assert len(err.rstrip("\n")) < 300, err[:300]
    code, out, err = run(capsys, "verify-tables", "--corpus", str(path), "--samples", "1", "--json")
    assert code == 4, err[-300:]
    assert [f["family"] for f in json.loads(out)["failing"]] == ["circle#1"]
    assert "bad expression" in json.loads(out)["failing"][0]["reason"]


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "compute", "--manifold", "circle", "--param", "d:2")
    assert code == 3


def test_param_in_exponent_notation_exits_3_at_once(capsys):
    """`1e999999999` would be a number of a billion digits: it is refused
    before any arithmetic, with one `error:` line."""
    for value in ("1e3", "1e999999999"):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--manifold", "circle", "--param", f"d={value}")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "exponent notation" in err


def test_repeated_param_exits_3_naming_it(capsys):
    code, out, err = run(capsys, "compute", "--manifold", "heis-I", "--param", "k=2",
                         "--param", "k=3")
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--param k given more than once" in err


def test_compute_invalid_map_exit_code(tmp_path, capsys):
    # a corpus whose constraints are too loose produces candidates that fail
    # the self-map equation: compute reports exit code 2
    full = packaged_corpus()
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
    from oracles import exterior_closed_form

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



@contextlib.contextmanager
def no_int_str_digit_limit():
    """Lift the int <-> str digit limit while the test reads the CLI's
    output: cli.main lifts it only while it runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_compute_numbers_past_the_int_str_digit_limit(capsys):
    """Numbers of more than 4,300 digits, past Python's default int <-> str
    conversion limit, print and parse: a dense torus-3 map whose Nielsen
    numbers reach 5,073 digits at k = 100, and a 4,400-digit parameter."""
    argv = ["compute", "--manifold", "torus-3", "--kmax", "100", "--json"]
    for i, (r, c) in enumerate(itertools.product((1, 2, 3), repeat=2), start=1):
        argv += ["--param", f"m{r}{c}={2 ** 62 // (i + 2) + 7919 * i}"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    with no_int_str_digit_limit():
        data = json.loads(out)
        assert data["sign_relations_ok"] is True
        assert len(str(abs(data["nielsen_numbers"][-1]))) == 5073
    sevens = "7" * 4400
    code, out, err = run(capsys, "compute", "--manifold", "torus-2", "--param",
                         f"m11={sevens}", "--kmax", "2", "--json")
    assert (code, err) == (0, "")
    with no_int_str_digit_limit():
        assert json.loads(out)["params"]["m11"] == sevens


def test_main_restores_the_int_str_digit_limit(capsys):
    """cli.main lifts the limit for its own run only: after a call that
    succeeds, one that fails, and one that argparse ends, the process has
    the limit it had before."""
    limit = sys.get_int_max_str_digits()
    assert limit != 0
    assert run(capsys, "compute", "--manifold", "torus-2", "--json")[0] == 0
    assert sys.get_int_max_str_digits() == limit
    assert run(capsys, "compute", "--manifold", "no-such-manifold")[0] == 3
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit):
        main(["compute"])
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == limit


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


OUTSIDE = {
    "int": ["1/2", "-3/2", "0.5"],
    "int_odd": ["2", "0", "-4", "1/2"],
    "int_even": ["1", "-3", "3/2"],
    "half_int": ["1/3", "-1/4"],
    "half_odd": ["1", "0", "-2", "1/4"],
    "quarter_odd": ["1/2", "1", "3/8"],
    "third_int": ["1/2", "1/4"],
}


def outside_values(domain):
    """Values just outside a family parameter's domain, as the CLI reads
    them; none for `rational`, which holds every value."""
    kind, _, arg = domain.partition(":")
    if kind == "rational":
        return []
    if kind == "shift":
        return [str(Fraction(arg) + d) for d in (Fraction(1, 2), Fraction(-1, 3))]
    if kind == "int_multiple":
        return [str(int(arg) + 1), "-1", "1/2"]
    if kind in ("int_mod", "int_pos_mod"):
        m, residues = arg.split(":")
        m, residues = int(m), {int(r) for r in residues.split(",")}
        values = [str(v) for v in range(1, m + 1) if v % m not in residues] + ["1/2"]
        return values + (["0", str(-m)] if kind == "int_pos_mod" else [])
    return OUTSIDE[kind]


def test_cli_fuzz_outside_domains(capsys):
    """Every family parameter set, one at a time, to each of its
    `outside_values` (a half-integer for `int`, an even value for `int_odd`,
    ...), the other parameters a seeded valid sample: each run exits 3 with
    one stderr line naming the parameter and its domain.  Domains are
    checked before constraints, so a constraint that restates the domain
    does not hide it."""
    rng = random.Random(1431)
    runs = 0
    for spec in load_corpus().families:
        for name, domain in spec.params:
            for value in outside_values(domain):
                params = dict(sample_params(spec, 1, rng.randrange(100))[0], **{name: value})
                argv = ["compute", "--manifold", spec.manifold, "--family", str(spec.index)]
                for key, val in params.items():
                    argv += ["--param", f"{key}={val}"]
                code, out, err, elapsed = run_fuzz_call(capsys, argv)
                expected = (f"error: {spec.label}: parameter {name} = "
                            f"{parse_rational(value)} is not in {domain}\n")
                assert (code, out, err) == (3, "", expected), argv
                assert elapsed < FUZZ_SECONDS_PER_CALL, (argv, elapsed)
                runs += 1
    assert runs > 1000


@pytest.mark.parametrize("check", ["spectrum-partition", "factorization"])
def test_failed_internal_check_raises_and_exits_4(monkeypatch, capsys, check):
    """The spectrum's modulus classes must partition it, and a factorization
    must reproduce its input.  Both are raises, not asserts, so they hold
    under `python -O`; forced to fail, each raises InfranilError from the
    library and exits 4 through the CLI, with no traceback."""
    from fractions import Fraction

    from infranil import fixedpoint, polynomials
    from infranil.errors import InfranilError
    from infranil.matrices import QMatrix

    if check == "spectrum-partition":
        message = "modulus classes must partition the spectrum"
        monkeypatch.setattr(
            fixedpoint, "_analyze_factor", lambda q, mult: fixedpoint.FactorRoots(q, mult, (), None)
        )
    else:
        message = "factorization does not reproduce the input"
        roots = polynomials._rational_roots
        monkeypatch.setattr(polynomials, "_rational_roots", lambda p: roots(p)[:1])
    with pytest.raises(InfranilError, match=f"^{message}$"):
        fixedpoint.eigen_classify(QMatrix([[3, 0], [0, Fraction(5)]]))
    code, out, err = run(
        capsys, "compute", "--manifold", "klein-bottle",
        "--param", "a=3", "--param", "b=5", "--param", "s=1/2", "--json",
    )
    assert (code, out, err) == (4, "", f"internal error: {message}\n")
