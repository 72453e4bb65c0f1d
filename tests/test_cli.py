import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bracealg
from bracealg.finite import LaurentAlgebra, build_truncated_polynomial
from bracealg.ainfty import MinimalAInfty, gauge_by_central_unit
from bracealg.cli import build_parser, main, structure_from_json, structure_to_json
from bracealg.hochschild import cohomology
from bracealg.models import complete_resolution, dg_end, seeded_minimal_model


@pytest.fixture
def kx2_spec(tmp_path):
    path = tmp_path / "kx2.json"
    path.write_text(json.dumps(build_truncated_polynomial(2).to_json()))
    return str(path)


def run(argv):
    return main(argv)


def test_hh_report(kx2_spec, tmp_path):
    out = str(tmp_path / "hh.json")
    assert run(["hh", kx2_spec, "--cap-p", "5", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["schema"] == "v1"
    assert rep["hh_dimensions"] == {"0": 2, "1": 1, "2": 1, "3": 1, "4": 1, "5": 1}


# sha256 of json.dumps([cup_table, bracket_table], sort_keys=True) of the hh
# report on k[x]/(x^3) at --cap-p 5, recorded before braces were rewritten
# as tensor compositions
HH_X3_TABLES_SHA256 = "31a07bd108cc9541bf945d0a4b1303552c40232771675bc23fc6cd497984b7c2"


def test_hh_product_tables_pinned(tmp_path):
    path = tmp_path / "kx3.json"
    path.write_text(json.dumps(build_truncated_polynomial(3).to_json()))
    out = str(tmp_path / "hh.json")
    assert run(["hh", str(path), "--cap-p", "5", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    tables = json.dumps([rep["cup_table"], rep["bracket_table"]], sort_keys=True)
    assert hashlib.sha256(tables.encode()).hexdigest() == HH_X3_TABLES_SHA256


# k[x]/(x^3) with basis x, 1, x^2: the unit is a basis vector, but not the first
KX3_PERMUTED = {
    "dim": 3,
    "labels": ["x", "1", "x^2"],
    "unit": ["0", "1", "0"],
    "mult": [
        [0, 0, ["0", "0", "1"]], [0, 1, ["1", "0", "0"]], [1, 0, ["1", "0", "0"]],
        [1, 1, ["0", "1", "0"]], [1, 2, ["0", "0", "1"]], [2, 1, ["0", "0", "1"]],
    ],
}

# sha256 of the whole hh report on k[x]/(x^3) at --cap-p 5, read from
# kx3.json in the working directory, recorded before the class products
# left the brace engine
HH_X3_REPORT_SHA256 = {
    ("monomial", "fp:101"): "f7e024960131832f67b73392ba1e8c1616921e4ce7d015b653d8213b68f87565",
    ("permuted", "qq"): "d03ae3299deaa35213bed04c390723462f58ea6432317ac6332469339d09b1d9",
    ("permuted", "fp:101"): "e3a2207fad2d7d9082537ea8160efaf964ea5a8ef4def62cd783c5ea0534b84e",
}


@pytest.mark.parametrize("basis,field", sorted(HH_X3_REPORT_SHA256), ids=["%s-%s" % k for k in sorted(HH_X3_REPORT_SHA256)])
def test_hh_report_pinned(tmp_path, monkeypatch, basis, field):
    spec = KX3_PERMUTED if basis == "permuted" else build_truncated_polynomial(3).to_json()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kx3.json").write_text(json.dumps(spec))
    assert run(["hh", "kx3.json", "--cap-p", "5", "--field", field, "--out", "hh.json"]) == 0
    assert hashlib.sha256((tmp_path / "hh.json").read_bytes()).hexdigest() == HH_X3_REPORT_SHA256[basis, field]


def _benchmark_inputs():
    """perfbench/inputs.py, read from the repository as a plain module."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the whole hh report at --cap-p 5 on the benchmark's seeded
# k[x]/(x^3) (perfbench/inputs.hh_spec), read from algebra.json in the working
# directory, recorded before the class products were computed as tables;
# the benchmark itself checks only hh_dimensions
HH_SEEDED_REPORT_SHA256 = {
    1: "dc9c8b79b016073b2c3ab4af1c4a188edb19e78e01ead461e1d85b1c83a1d2b8",
    2: "dc9c8b79b016073b2c3ab4af1c4a188edb19e78e01ead461e1d85b1c83a1d2b8",
    3: "dc9c8b79b016073b2c3ab4af1c4a188edb19e78e01ead461e1d85b1c83a1d2b8",
    4: "845d295ca596c03abf9f2e886cb2b8e48fcf56823607b4ef5116e803519940a6",
    5: "38e5e5c911f7841441e67907c0be134f0a4e7eb0bdffb2073a68fd42a669a551",
    6: "34ed5aeeb21d9d5ff2845c748dbf47f56e1dbd5d2cce1b599a1925f08fdccb2f",
    7: "c48a3c399effcb467298fdd11fd695ea9c11dc58fe3756c393fb4a892553a7a3",
}


@pytest.mark.parametrize("seed", sorted(HH_SEEDED_REPORT_SHA256))
def test_hh_seeded_report_pinned(tmp_path, monkeypatch, seed):
    inputs = _benchmark_inputs()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "algebra.json").write_text(inputs.dump_text(inputs.hh_spec(seed)))
    assert run(["hh", "algebra.json", "--cap-p", "5", "--out", "hh.json"]) == 0
    assert hashlib.sha256((tmp_path / "hh.json").read_bytes()).hexdigest() == HH_SEEDED_REPORT_SHA256[seed]


# the same on k[x]/(x^4) at --cap-p 6, read from kx4.json
HH_X4_REPORT_SHA256 = "946cb265d368f06eec8b56e0ec179631b8e3ef51ffd10e1b3e31c8d9b2cd107f"


def test_hh_x4_report_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kx4.json").write_text(json.dumps(build_truncated_polynomial(4).to_json()))
    assert run(["hh", "kx4.json", "--cap-p", "6", "--out", "hh.json"]) == 0
    assert hashlib.sha256((tmp_path / "hh.json").read_bytes()).hexdigest() == HH_X4_REPORT_SHA256


# sha256 of the compare report at --cap-n 9 on the benchmark's seeded (4,2)
# pairs (perfbench/inputs.write_ainfty_dumps), read from base.json and the
# partner's dump in the working directory; the benchmark itself checks
# only the verdict
COMPARE_REPORT_SHA256 = {
    (1, "gauged"): "cc74edc1736d48350518e7a9086d83c805757a2ed91232893ef82ffd92d09571",
    (1, "perturbed"): "d3de0d52dc4945770d605c4a29e1c24561ccc3a48b23a163d449f132d724a1f6",
    (7, "gauged"): "1f0404a3a462789cad1305f39755a9f42e68d964b53beab1321dcc47b0986ce2",
    (7, "perturbed"): "75e4fe9631bee7d01f4538215d93fee3c0912ca653f3f8f81df99019582185ba",
}


@pytest.mark.parametrize("seed,partner", sorted(COMPARE_REPORT_SHA256))
def test_compare_seeded_report_pinned(tmp_path, monkeypatch, seed, partner):
    monkeypatch.chdir(tmp_path)
    _benchmark_inputs().write_ainfty_dumps(seed, ".")
    assert run(["compare", "base.json", partner + ".json", "--cap-n", "9", "--out", "cmp.json"]) == 0
    digest = hashlib.sha256((tmp_path / "cmp.json").read_bytes()).hexdigest()
    assert digest == COMPARE_REPORT_SHA256[seed, partner]


def test_hh_all_zero_for_k(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(build_truncated_polynomial(1).to_json()))
    out = str(tmp_path / "hh.json")
    assert run(["hh", str(path), "--cap-p", "4", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["hh_dimensions"] == {"0": 1, "1": 0, "2": 0, "3": 0, "4": 0}


def test_malformed_spec_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "labels": ["1", "x"], "unit": ["1", "0"], "mult": [[0, 0, ["1"]]]}))
    assert run(["hh", str(path)]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("labels", 5),
        ("mult", 5),
        ("mult", [7]),
        ("mult", [[0, 0, 5]]),
        # a string is not read one character at a time
        ("unit", "100"),
    ],
    ids=["labels-int", "mult-int", "mult-entry-int", "mult-coeffs-int", "unit-string"],
)
def test_malformed_spec_field_exit_2(tmp_path, capsys, field, value):
    spec = build_truncated_polynomial(3).to_json()
    spec[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert run(["hh", str(path), "--cap-p", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + field) and "expected a list" in err


def _hh_dimensions(tmp_path, name, spec):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(spec))
    out = tmp_path / (name + "-hh.json")
    assert run(["hh", str(path), "--cap-p", "4", "--out", str(out)]) == 0
    return json.loads(out.read_text())["hh_dimensions"]


def test_hh_unit_not_a_basis_vector(tmp_path):
    # upper-triangular 2x2 matrices on the basis e11, e12, e22: the unit
    # e11 + e22 is no basis vector.  They are the path algebra of the A2
    # quiver, hereditary with a tree quiver, so HH^0 = k and HH^n = 0 for
    # n >= 1 (Happel, 1989)
    upper = {
        "dim": 3,
        "labels": ["e11", "e12", "e22"],
        "unit": ["1", "0", "1"],
        "mult": [
            [0, 0, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]],
            [1, 2, ["0", "1", "0"]], [2, 2, ["0", "0", "1"]],
        ],
    }
    assert _hh_dimensions(tmp_path, "upper", upper) == {"0": 1, "1": 0, "2": 0, "3": 0, "4": 0}


def test_hh_dimensions_on_a_basis_without_the_unit(tmp_path):
    # k[x]/(x^3) on the basis 1+x, x, x^2, whose unit is (1+x) - x
    shifted = {
        "dim": 3,
        "labels": ["1+x", "x", "x^2"],
        "unit": ["1", "-1", "0"],
        "mult": [
            [0, 0, ["1", "1", "1"]], [0, 1, ["0", "1", "1"]], [1, 0, ["0", "1", "1"]],
            [0, 2, ["0", "0", "1"]], [2, 0, ["0", "0", "1"]], [1, 1, ["0", "0", "1"]],
        ],
    }
    monomial = _hh_dimensions(tmp_path, "monomial", build_truncated_polynomial(3).to_json())
    assert _hh_dimensions(tmp_path, "shifted", shifted) == monomial == {"0": 3, "1": 2, "2": 2, "3": 2, "4": 2}


def test_cap_exceeded_exit_3(kx2_spec):
    assert run(["hh", kx2_spec, "--cap-p", "12"]) == 3


def test_transfer_21_formal(tmp_path):
    out = str(tmp_path / "tr.json")
    assert run(["transfer", "--n", "2", "--a", "1", "--cap-n", "8", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["formality"] == "FORMAL"
    assert rep["h0_dim"] == 1
    assert rep["mc_residual_digest"]["nonzero_arities"] == []


def test_transfer_consumes_model_dump(tmp_path):
    path = tmp_path / "dg.json"
    assert run(["model", "--n", "4", "--a", "2", "--out", str(path)]) == 0
    data = json.loads(Path(path).read_text())["dga"]
    good = tmp_path / "dga.json"
    good.write_text(json.dumps(data))
    out = str(tmp_path / "tr.json")
    assert run(["transfer", str(good), "--cap-n", "6", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["h0_dim"] == 2
    assert rep["mc_residual_digest"]["nonzero_arities"] == []


def test_transfer_corrupted_dg_spec_exit_2(tmp_path):
    path = tmp_path / "dg.json"
    assert run(["model", "--n", "4", "--a", "2", "--out", str(path)]) == 0
    data = json.loads(Path(path).read_text())["dga"]
    data["diff"]["0"][0][0] = "1"  # break d^2 = 0 / Leibniz
    bad = tmp_path / "bad_dg.json"
    bad.write_text(json.dumps(data))
    assert run(["transfer", str(bad), "--cap-n", "6"]) == 2
    data["diff"]["0"][0][0] = "1/0"  # a scalar that is not a number
    bad.write_text(json.dumps(data))
    assert run(["transfer", str(bad), "--cap-n", "6"]) == 2


def test_massey_42(tmp_path):
    out = str(tmp_path / "ma.json")
    assert run(["massey", "--n", "4", "--a", "2", "--cap-n", "8", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["tate_unit"] is True
    assert rep["restricted_class"]["is_zero"] is False
    assert rep["omega4_stable_iso_certificate"] is True


def test_massey_semisimple_flag(tmp_path):
    out = str(tmp_path / "ma.json")
    assert run(["massey", "--n", "2", "--a", "1", "--cap-n", "8", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["restricted_class"]["is_zero"] is True
    assert rep["tate_unit"] is True and rep["separable_coefficient"] is True


def elapsed_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("elapsed:")]


def test_compare_pipeline(tmp_path, capsys):
    m = seeded_minimal_model(4, 2, cap=8)
    mp = gauge_by_central_unit(m, m.algebra.element_from([1, 1]))
    zero = MinimalAInfty(m.laurent, {}, 8)
    pm, pmp, pz = (tmp_path / n for n in ("m.json", "mp.json", "z.json"))
    pm.write_text(json.dumps(structure_to_json(m)))
    pmp.write_text(json.dumps(structure_to_json(mp)))
    pz.write_text(json.dumps(structure_to_json(zero)))
    out = str(tmp_path / "cmp.json")
    capsys.readouterr()
    assert run(["compare", str(pm), str(pmp), "--cap-n", "8", "--out", out]) == 0
    assert len(elapsed_lines(capsys)) == 1  # main times every command that returns
    rep = json.loads(Path(out).read_text())
    assert rep["result"] == "isomorphism"
    assert rep["residual_digest"]["nonzero_arities"] == []
    # mismatched classes -> exit 4, still timed
    assert run(["compare", str(pm), str(pz), "--cap-n", "8", "--out", out]) == 4
    assert len(elapsed_lines(capsys)) == 1
    # self-compare -> identity (no higher components)
    assert run(["compare", str(pm), str(pm), "--cap-n", "8", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["morphism"]["components"] == {}


def test_compare_reports_an_obstruction(tmp_path):
    # [m4] = 0 but m6 has a nonzero class: compare reports the obstruction
    # at arity 6 and exits 0
    lam = build_truncated_polynomial(2)
    m = MinimalAInfty(LaurentAlgebra(lam), {6: cohomology(lam, 6, 2)[0].representative.with_cap(8)}, 8)
    pm, pz = tmp_path / "m.json", tmp_path / "z.json"
    pm.write_text(json.dumps(structure_to_json(m)))
    pz.write_text(json.dumps(structure_to_json(MinimalAInfty(m.laurent, {}, 8))))
    out = tmp_path / "cmp.json"
    assert run(["compare", str(pm), str(pz), "--cap-n", "8", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["result"] == "obstruction" and rep["obstruction_arity"] == 6


def test_structure_dump_roundtrip():
    m = seeded_minimal_model(4, 2, cap=8)
    m2 = structure_from_json(structure_to_json(m))
    assert all((m2.op(n) - m.op(n)).is_zero() for n in (4, 6, 8))


def test_model_report(tmp_path):
    out = str(tmp_path / "model.json")
    assert run(["model", "--n", "4", "--a", "2", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["h0_dim"] == 2
    assert rep["rigid"] is False
    assert rep["stable_end_dim"] == 2


# sha256 of the report files; the benchmark (perfbench/run.py,
# EXPECTED_SHA256) checks the same digests on every run
REPORT_SHA256 = {
    "massey": "163b84884ab8878118fd02a646a45746f5bbe8db89af3ae7795207016ae3c296",
    "transfer": "197d563e52d523ba602c0731847008b6aede24479ed763c60b100d7ef3721295",
    "model": "7a99ad8d71fb494caf8b833440b54f645f62d148dc96d29bffc98fcd0a661316",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["massey", "--n", "6", "--a", "3", "--cap-n", "8"],
        ["transfer", "--n", "8", "--a", "4", "--cap-n", "8"],
        ["model", "--n", "6", "--a", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_bytes_pinned(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[argv[0]]


def test_reports_byte_identical_across_threads(kx2_spec, tmp_path):
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = str(tmp_path / ("h%d.json" % i))
        assert run(["hh", kx2_spec, "--cap-p", "5", "--threads", threads, "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_field_option_fp(kx2_spec, tmp_path):
    out = str(tmp_path / "hh.json")
    assert run(["hh", kx2_spec, "--cap-p", "4", "--field", "fp:23", "--out", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["hh_dimensions"]["0"] == 2
    # p must exceed 2 * cap
    assert run(["hh", kx2_spec, "--cap-p", "4", "--field", "fp:5"]) == 2


def test_caps_validated():
    assert run(["transfer", "--n", "2", "--a", "1", "--cap-n", "3"]) == 2


# The namespaces of the README's and the benchmark's command lines, as the
# parser gave them when it built every subparser's arguments on each run.
_DEFAULTS = {"cap_p": 6, "cap_n": 8, "field": None, "out": None, "threads": 1, "verbose": False}
_N_A = {"input": None, "n": None, "a": None}


@pytest.mark.parametrize(
    "line,expected",
    [
        ("hh algebra.json --cap-p 6 --out report.json", {"input": "algebra.json", "out": "report.json"}),
        ("model --n 4 --a 2 --out model42.json", {"n": 4, "a": 2, "out": "model42.json"}),
        ("transfer --n 2 --a 1 --cap-n 8 --out transfer21.json", {**_N_A, "n": 2, "a": 1, "out": "transfer21.json"}),
        ("transfer model42_dga.json --cap-n 8", {**_N_A, "input": "model42_dga.json"}),
        ("massey --n 4 --a 2 --out massey42.json", {**_N_A, "n": 4, "a": 2, "out": "massey42.json"}),
        ("compare m.json m_prime.json --cap-n 8", {"left": "m.json", "right": "m_prime.json"}),
        ("hh algebra.json --cap-p 5 --threads 2", {"input": "algebra.json", "cap_p": 5, "threads": 2}),
        ("massey --n 6 --a 3 --cap-n 8", {**_N_A, "n": 6, "a": 3}),
        ("transfer --n 8 --a 4 --cap-n 8", {**_N_A, "n": 8, "a": 4}),
        ("model --n 6 --a 3", {"n": 6, "a": 3}),
        ("compare base.json gauged.json --cap-n 9", {"left": "base.json", "right": "gauged.json", "cap_n": 9}),
    ],
)
def test_parser_namespaces_pinned(line, expected):
    argv = line.split()
    assert vars(build_parser(argv[0]).parse_args(argv)) == {"command": argv[0], **_DEFAULTS, **expected}


@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in ("hh", "transfer", "massey", "compare", "model"))])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bracealg " + " ".join(argv[:-1]))


def test_field_option_bad_prime_exit_2(kx2_spec):
    assert run(["hh", kx2_spec, "--field", "fp:abc"]) == 2


def _edited_structure_dump(tmp_path, edit):
    data = structure_to_json(seeded_minimal_model(4, 2, cap=8))
    edit(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_structure_dump_bad_scalar_exit_2(tmp_path):
    def edit(data):
        data["ops"]["4"]["components"]["4"][0]["matrix"][0][0] = "1/0"

    assert run(["massey", _edited_structure_dump(tmp_path, edit)]) == 2


def test_structure_dump_missing_cap_exit_2(tmp_path):
    def edit(data):
        del data["cap"]

    assert run(["massey", _edited_structure_dump(tmp_path, edit)]) == 2


def _ragged_row(data):
    data["ops"]["4"]["components"]["4"][0]["matrix"][0].pop()


def _bad_op_key(data):
    data["ops"]["x"] = data["ops"].pop("4")


def _string_cap(data):
    data["cap"] = "8"


def _no_dims(data):
    del data["dims"]


def _ragged_diff_row(data):
    data["diff"]["0"][0].pop()


def _short_mult_row(data):
    data["mult"]["0,0"][1].pop()


def _ops_not_an_object(data):
    data["ops"] = "x"


def _components_not_an_object(data):
    data["ops"]["4"]["components"] = 5


def _component_list_not_a_list(data):
    data["ops"]["4"]["components"]["4"] = 5


def _weights_not_a_list(data):
    data["ops"]["4"]["components"]["4"][0]["weights"] = 5


def _matrix_not_a_list(data):
    data["ops"]["4"]["components"]["4"][0]["matrix"] = 5


def _string_dims_value(data):
    data["dims"]["0"] = str(data["dims"]["0"])


def _three_degree_mult_key(data):
    data["mult"]["0,0,0"] = data["mult"].pop("0,0")


def _mult_not_an_object(data):
    data["mult"] = "x"


def _diff_rows_not_a_list(data):
    data["diff"] = {"0": 5}


def _unit_not_a_list(data):
    data["unit"] = 5


def _mult_table_not_a_list(data):
    data["mult"]["0,0"] = 5


def _mult_vector_not_a_list(data):
    data["mult"]["0,0"][0][0] = 5


def _periodic_not_a_bool(data):
    data["periodic"] = "yes"


def _labels_not_an_object(data):
    data["labels"] = 5


def _mult_key_outside_dims(data):
    data["mult"]["2,0"] = []


@pytest.mark.parametrize(
    "kind,edit",
    [
        ("structure", _ragged_row),
        ("structure", _bad_op_key),
        ("structure", _string_cap),
        ("structure", _ops_not_an_object),
        ("structure", _components_not_an_object),
        ("structure", _component_list_not_a_list),
        ("structure", _weights_not_a_list),
        ("structure", _matrix_not_a_list),
        ("dg", _no_dims),
        ("dg", _ragged_diff_row),
        ("dg", _short_mult_row),
        ("dg", _string_dims_value),
        ("dg", _three_degree_mult_key),
        ("dg", _mult_not_an_object),
        ("dg", _diff_rows_not_a_list),
        ("dg", _unit_not_a_list),
        ("dg", _mult_table_not_a_list),
        ("dg", _mult_vector_not_a_list),
        ("dg", _periodic_not_a_bool),
        ("dg", _labels_not_an_object),
        ("dg", _mult_key_outside_dims),
    ],
    ids=[
        "ragged-matrix-row", "non-integer-op-key", "string-cap", "ops-not-an-object", "components-not-an-object",
        "component-list-not-a-list", "weights-not-a-list", "matrix-not-a-list", "dg-no-dims", "dg-ragged-diff-row",
        "dg-short-mult-row", "dg-string-dims-value", "dg-three-degree-mult-key", "dg-mult-not-an-object",
        "dg-diff-rows-not-a-list", "dg-unit-not-a-list", "dg-mult-table-not-a-list", "dg-mult-vector-not-a-list",
        "dg-periodic-not-a-bool", "dg-labels-not-an-object", "dg-mult-key-outside-dims",
    ],
)
def test_malformed_dump_exit_2(tmp_path, kind, edit):
    if kind == "structure":
        assert run(["massey", _edited_structure_dump(tmp_path, edit)]) == 2
        return
    path = tmp_path / "dg.json"
    assert run(["model", "--n", "4", "--a", "2", "--out", str(path)]) == 0
    data = json.loads(Path(path).read_text())["dga"]
    edit(data)
    path.write_text(json.dumps(data))
    assert run(["transfer", str(path), "--cap-n", "6"]) == 2


def _no_own_component(data):
    data["ops"]["4"]["components"] = {}


def _weighted_component(data):
    comps = data["ops"]["4"]["components"]["4"]
    comps.append({"weights": [1, 0, 0, 0], "matrix": comps[0]["matrix"]})


def _wrong_iota_power(data):
    data["ops"]["4"]["iota_power"] = 5


def _input(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _kx3_with(**fields):
    return dict(build_truncated_polynomial(3).to_json(), **fields)


def _dg(dims, unit, mult):
    return {"periodic": True, "dims": dims, "unit": unit, "diff": {}, "mult": mult}


ODD_MULT = {"0,0": [[["1"]]], "0,1": [[["1"]]], "1,0": [[["1"]]], "1,1": [[["0"]]]}


@pytest.mark.parametrize(
    "make_argv,message",
    [
        pytest.param(lambda t: ["massey", _edited_structure_dump(t, _no_own_component)],
                     "operation 4: missing its own component", id="structure-no-own-component"),
        pytest.param(lambda t: ["massey", _edited_structure_dump(t, _weighted_component)],
                     "operation 4: weighted components not allowed", id="structure-weighted-component"),
        pytest.param(lambda t: ["massey", _edited_structure_dump(t, _wrong_iota_power)],
                     "operation 4: iota_power 5, expected 1", id="structure-wrong-iota-power"),
        pytest.param(lambda t: ["hh", _input(t, [1, 2])], "algebra spec must be an object", id="spec-not-an-object"),
        pytest.param(lambda t: ["hh", _input(t, _kx3_with(mult=[[0, 0]]))],
                     "mult[0]: expected [i, j, coeffs]", id="spec-mult-not-a-triple"),
        pytest.param(lambda t: ["hh", _input(t, _kx3_with(mult=[[5, 0, ["0", "0", "0"]]]))],
                     "mult[0]: row index 5 out of range", id="spec-index-out-of-range"),
        pytest.param(lambda t: ["transfer", _input(t, _dg({"1": 1}, [], {"1,1": [[["0"]]]}))],
                     "need a degree-0 component containing the unit", id="dg-no-degree-0"),
        pytest.param(lambda t: ["transfer", _input(t, _dg({"0": 1, "1": 1}, ["1", "0"], ODD_MULT))],
                     "unit: expected 1 entries, got 2", id="dg-unit-length"),
        pytest.param(lambda t: ["transfer", _input(t, _dg({"0": 1}, ["1"], {"0,0": [[["1"]]], "2,0": []}))],
                     "multiplication table at degrees (2,0) outside dims", id="dg-mult-key-outside-dims"),
        pytest.param(lambda t: ["transfer", _input(t, dict(_dg({"0": 1, "1": 1}, ["1"], ODD_MULT), diff={"0": [["0"], ["0"]]}))],
                     "differential shape mismatch at degree 0", id="dg-diff-too-many-rows"),
        pytest.param(lambda t: ["transfer", _input(t, _dg({"0": 1, "2": 0}, ["1"], {"0,0": [[["1"]]]}))],
                     "periodic DG algebra: degrees must be 0 or 1, got [0, 2]", id="dg-periodic-degree-2"),
        pytest.param(lambda t: ["transfer", _input(t, _dg({"0": 1, "1": -1}, ["1"], {"0,0": [[["1"]]]}))],
                     "DG dump dims: expected non-negative integer dimensions, got {'0': 1, '1': -1}",
                     id="dg-negative-dimension"),
        pytest.param(lambda t: ["hh", _input(t, _kx3_with()), "--field", "fp:21"],
                     "p must be an odd prime, got 21", id="field-not-prime"),
        pytest.param(lambda t: ["hh", _input(t, _kx3_with()), "--field", "rr"],
                     "unknown field 'rr' (use qq or fp:<prime>)", id="field-unknown"),
        pytest.param(lambda t: ["massey"], "need a structure dump or --n/--a", id="massey-no-input"),
        pytest.param(lambda t: ["transfer"], "need either an input DG dump or --n/--a model parameters", id="transfer-no-input"),
        pytest.param(lambda t: ["model"], "model command needs --n and --a", id="model-no-input"),
    ],
)
def test_input_refusals_exit_2(tmp_path, capsys, make_argv, message):
    assert run(make_argv(tmp_path)) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.fixture(scope="module")
def model_42_dump(tmp_path_factory):
    """The DG dump of `model --n 4 --a 2` and a directory for edited copies."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert run(["model", "--n", "4", "--a", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())["dga"], tmp_path_factory.mktemp("edited")


EDITS = {
    "wrong-type": st.sampled_from(["x", 5, 1.5, True, [], {}, [[1]]]),
    "null": st.none(),
    "integer": st.sampled_from([-1, -3, 2, 3, 10**6]),
}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_edited_dg_dump_exits_0_or_2(model_42_dump, data):
    # one seeded edit to the dump: a value of the wrong type, null, a
    # deleted key or entry, a negative or out-of-range integer, or an extra
    # mult key; transfer then reports (0) or refuses with an error line (2),
    # and never raises
    dump, out = model_42_dump
    edited = copy.deepcopy(dump)
    kind = data.draw(st.sampled_from(sorted(EDITS) + ["delete", "mult-key"]))
    if kind == "mult-key":
        key = "%d,%d" % (data.draw(st.integers(-2, 3)), data.draw(st.integers(-2, 3)))
        edited["mult"][key] = data.draw(st.sampled_from([[], dump["mult"]["0,0"]]))
    else:
        parent, key = edited, data.draw(st.sampled_from(sorted(edited)))
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            parent = parent[key]
            key = data.draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = data.draw(EDITS[kind])
    path = out / "edited.json"
    path.write_text(json.dumps(edited))
    assert run(["transfer", str(path), "--cap-n", "6", "--out", str(out / "report.json")]) in (0, 2)


# -- per-command imports, checked in a fresh interpreter ------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bracealg.__file__)))


def _python(args, cwd):
    """Run the interpreter on args with this package on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


# the names `from bracealg import *` gives, pinned since the package imported
# every module eagerly
STAR_NAMES = """
    AInftyMorphism AlgebraSpecError BadParameters Bimodule BimoduleMap CapTooLow ClassMismatch Cochain
    ContractionData DGAlgebra DGEnd EulerAdjoinedCochain FORMAL FiniteAlgebra GF HHClass INCONCLUSIVE
    LaurentAlgebra M3NonZero Matrix MinimalAInfty NOT_FORMAL NoWitness NotACocycle NotAUnit NotCentral
    NotLaurentForm NotUnit ObstructionNotContractible PeriodicComplex QQ Resolution SubspaceBasis
    SubspaceNotContained WrongBidegree ainfty ainfty_map_check algebra bar_resolution brace bracket build_iso
    build_truncated_polynomial class_of cocycle_to_extension cohomology cohomology_algebra
    comparison_map_to_periodic complete_resolution contractible_solution cup dg_end diagonal_bimodule
    differential divide_class enveloping euler_derivation extract_m4_class formality_verdict_of_model
    free_rank_one_bimodule gauge_by_central_unit hh_isos_backward hh_isos_forward hochschild is_formal
    is_stable_iso is_symmetric linalg load_algebra make_contraction mc_check models
    periodic_bimodule_resolution periodicity_witness random_cochain restrict_j restricted_ump rigidity_check
    seeded_minimal_model solve_coboundary stable_endomorphism_algebra strip_projective_summands syzygy
    tate_unit_check transfer transported_structure two_equations_solve
"""


def test_star_import_names_unchanged(tmp_path):
    code = "ns = {}; exec('from bracealg import *', ns); print(*sorted(set(ns) - {'__builtins__'}))"
    assert _python(["-c", code], tmp_path).stdout.split() == sorted(STAR_NAMES.split())


def _bad_parameters(tmp_path):
    return ["model", "--n", "3", "--a", "5"]


def _odd_cohomology(tmp_path):
    # k[e]/(e^2) with e odd and d = 0: H^1 is not zero, so no Laurent form
    dga = {
        "periodic": True, "dims": {"0": 1, "1": 1}, "unit": ["1"], "diff": {},
        "mult": {"0,0": [[["1"]]], "0,1": [[["1"]]], "1,0": [[["1"]]], "1,1": [[["0"]]]},
    }
    (tmp_path / "odd.json").write_text(json.dumps(dga))
    return ["transfer", "odd.json", "--cap-n", "6"]


def _bounded_dump(tmp_path):
    # k in degree 0, not 2-periodic: no Laurent form, so transfer refuses it
    dga = {"periodic": False, "dims": {"0": 1}, "unit": ["1"], "mult": {"0,0": [[["1"]]]}, "diff": {}}
    (tmp_path / "bounded.json").write_text(json.dumps(dga))
    return ["transfer", "bounded.json", "--cap-n", "6"]


def _unit_length_mismatch(tmp_path):
    # two unit entries for a one-dimensional degree 0
    dga = {
        "periodic": True, "dims": {"0": 1, "1": 1}, "unit": ["1", "0"], "diff": {},
        "mult": {"0,0": [[["1"]]], "0,1": [[["1"]]], "1,0": [[["1"]]], "1,1": [[["0"]]]},
    }
    (tmp_path / "unit.json").write_text(json.dumps(dga))
    return ["transfer", "unit.json", "--cap-n", "6"]


def _class_mismatch(tmp_path):
    m = seeded_minimal_model(4, 2, cap=8)
    (tmp_path / "m.json").write_text(json.dumps(structure_to_json(m)))
    (tmp_path / "z.json").write_text(json.dumps(structure_to_json(MinimalAInfty(m.laurent, {}, 8))))
    return ["compare", "m.json", "z.json", "--cap-n", "8"]


@pytest.mark.parametrize(
    "make_argv,code",
    [(_bad_parameters, 2), (_odd_cohomology, 2), (_bounded_dump, 2), (_unit_length_mismatch, 2), (_class_mismatch, 4)],
    ids=["bad-parameters", "not-laurent-form", "bounded-dg-dump", "dg-unit-length", "class-mismatch"],
)
def test_exit_codes_in_fresh_interpreter(tmp_path, make_argv, code):
    proc = _python(["-m", "bracealg.cli", *make_argv(tmp_path), "--out", "report.json"], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


# Each command compiles only the layers it runs: hh and compare never load the
# bimodule layer (algebra), and model loads neither hochschild nor ainfty.
LOADED = """
import sys
from bracealg.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m[len("bracealg."):] for m in sys.modules if m.startswith("bracealg.")))
"""


def _dg_dump(tmp_path):
    (tmp_path / "dg.json").write_text(json.dumps(dg_end(complete_resolution(4, 2)).to_json()))
    return ["transfer", "dg.json", "--cap-n", "6"]


def _structure_pair(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(structure_to_json(seeded_minimal_model(4, 2, cap=8))))
    return ["compare", "m.json", "m.json", "--cap-n", "8"]


def _kx2(tmp_path):
    (tmp_path / "kx2.json").write_text(json.dumps(build_truncated_polynomial(2).to_json()))
    return ["hh", "kx2.json", "--cap-p", "4"]


@pytest.mark.parametrize(
    "make_argv,modules",
    [
        (lambda tmp_path: ["--help"], "cli"),
        (_kx2, "cli finite hochschild linalg"),
        (lambda tmp_path: ["model", "--n", "4", "--a", "2"], "cli dg finite linalg models"),
        (_dg_dump, "ainfty cli dg finite hochschild linalg"),
        (_structure_pair, "ainfty cli finite hochschild linalg"),
        (lambda tmp_path: ["massey", "--n", "4", "--a", "2"], "ainfty algebra cli dg finite hochschild linalg models"),
    ],
    ids=["help", "hh", "model", "transfer", "compare", "massey"],
)
def test_commands_load_only_their_layers(tmp_path, make_argv, modules):
    argv = make_argv(tmp_path)
    proc = _python(["-c", LOADED, *argv] + (["--out", "report.json"] if argv != ["--help"] else []), tmp_path)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert loaded == modules.split()
