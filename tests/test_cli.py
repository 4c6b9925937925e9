import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import aslab
from aslab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_ad_basic(capsys):
    code, out, _ = run_cli(
        capsys, "analyze-ad", "--field", "GF(2)(Z)", "--poly", "X^2-X-Z"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    res = doc["result"]
    assert res["c1"] and res["c2"] and res["c3"]
    assert res["eigenvalues"] == ["0", "1"]
    assert res["recovered"]["q"] == "X^2+X+Z"


def test_analyze_ad_matrix_input(capsys):
    mat = json.dumps({"field": "GF(2)", "entries": [["0", "1"], ["1", "1"]]})
    code, out, _ = run_cli(capsys, "analyze-ad", "--field", "GF(2)", "--matrix", mat)
    assert code == 0
    assert json.loads(out)["result"]["c3"] is True


def test_analyze_ad_matrix_from_a_file(capsys, tmp_path):
    mat = json.dumps({"entries": [["1", "2", "0"], ["0", "1", "1"], ["2", "0", "2"]]})
    path = tmp_path / "matrix.json"
    path.write_text(mat)
    inline = run_cli(capsys, "analyze-ad", "--field", "GF(3)", "--matrix", mat)
    from_file = run_cli(capsys, "analyze-ad", "--field", "GF(3)", "--matrix", str(path))
    assert inline[0] == 0 and from_file == inline


@pytest.mark.parametrize(
    "field, doc_field",
    [
        ("GF(2)", "GF(3)"),
        ("GF(2)", 2),
        ("GF(2)", None),
        ("GF(9)", "GF(3^2; mod=t^2+t+2)"),
        ("GF(2)(Z)", "GF(2)"),
    ],
    ids=["other-prime", "non-string", "null", "other-modulus", "base-of-kz"],
)
def test_matrix_json_field_other_than_the_field_exits_2(capsys, field, doc_field):
    mat = json.dumps({"field": doc_field, "entries": [["2", "1"], ["1", "0"]]})
    code, out, err = run_cli(capsys, "analyze-ad", "--field", field, "--matrix", mat)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "field, doc_field",
    [("GF(4)", "GF(2^2)"), ("GF(9)", "GF(3^2; mod=t^2+1)"), ("GF(3)(Z)", "GF(3)(Z)")],
)
def test_matrix_json_field_naming_the_same_field_is_accepted(capsys, field, doc_field):
    mat = json.dumps({"field": doc_field, "entries": [["0", "1"], ["1", "1"]]})
    code, out, _ = run_cli(capsys, "analyze-ad", "--field", field, "--matrix", mat)
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2


def test_decompose_tensor_oracle(capsys):
    code, out, _ = run_cli(capsys, "decompose-tensor", "--p", "2", "--n", "2", "--m", "3")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["blocks"] == [4, 2] and res["method"] == "oracle"


def test_decompose_tensor_formula(capsys):
    code, out, _ = run_cli(
        capsys, "decompose-tensor", "--p", "2", "--n", "2", "--m", "4",
        "--alpha", "1", "--beta", "1",
    )
    res = json.loads(out)["result"]
    assert res["blocks"] == [4, 4] and res["method"] == "formula"
    assert res["eigenvalue"] == "0"


def test_irreducible_reducible_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "irreducible", "--K", "GF(2)", "--n", "1", "--e", "1", "--r", "2", "--g", "Z"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "reducible"
    assert res["witness"] == "X^2+X+Z"
    assert res["oracle_checked"] and res["oracle_agrees"]


def test_irreducible_no_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "irreducible", "--K", "GF(3)", "--n", "1", "--g", "Z", "--no-oracle"
    )
    res = json.loads(out)["result"]
    assert res["verdict"] == "irreducible"
    assert res["oracle_checked"] is False and res["oracle_agrees"] is None


def test_primitive_element_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "primitive-element", "--field", "GF(4)(Z)", "--n", "2",
        "--a", "Z", "--subspace", "1",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["alpha_h"] == "X^2+X"
    assert res["degree_over_f"] == 2 and res["property_p"]


def test_primitive_element_certify_flag(capsys):
    # --certify runs irred.irreducible on q before the primitive element: an
    # irreducible q passes, a reducible one exits 2 and is accepted without
    # it, over GF(2)(Z) and for X^9-X-(Z^3-Z) over GF(9)(Z)
    argv = ("primitive-element", "--field", "GF(2)(Z)", "--n", "1", "--subspace", "1")
    code, out, _ = run_cli(capsys, *argv, "--a", "Z", "--certify")
    assert code == 0 and json.loads(out)["result"]["degree_over_f"] == 1
    gf9 = ("primitive-element", "--field", "GF(9)(Z)", "--n", "2", "--subspace", "1")
    for argv, reducible in [(argv, "Z^2-Z"), (gf9, "Z^3-Z")]:
        code, _, err = run_cli(capsys, *argv, "--a", reducible, "--certify")
        assert code == 2 and "q is reducible" in err
        assert run_cli(capsys, *argv, "--a", reducible)[0] == 0


def test_primitive_element_over_a_larger_field(capsys):
    # the subspace lives in GF(4), embedded into GF(16)
    code, out, _ = run_cli(
        capsys, "primitive-element", "--field", "GF(16)(Z)", "--n", "2",
        "--a", "Z", "--subspace", "1",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["alpha_h"] == "X^2+X"
    assert res["degree_over_f"] == 2
    assert res["minimal_polynomial"] == "X^2+X+Z"


@pytest.mark.parametrize("field, n", [("GF(2)(Z)", "2"), ("GF(4)(Z)", "0"), ("GF(16)(Z)", "90000")])
def test_primitive_element_without_the_subfield_exits_2(capsys, field, n):
    code, out, err = run_cli(
        capsys, "primitive-element", "--field", field, "--n", n, "--a", "Z", "--subspace", "1",
    )
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_subfield_lattice_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "subfield-lattice", "--p", "2", "--n", "2", "--a", "Z")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["subspace_count"] == 5  # 1 + 3 + 1
    code, out, _ = run_cli(
        capsys, "--format", "dot", "subfield-lattice", "--p", "2", "--n", "2", "--a", "Z"
    )
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_subfield_lattice_output_is_pinned(capsys):
    # SHA-256 of the JSON and dot outputs of the largest sweep for p = 2
    for argv, digest in [
        ((), "d653d09157d565574751e55dddcce60ef72751d507b1d856a48ed48e1f58f2af"),
        (("--format", "dot"), "959f0218d04484ff53149df9167cde91ff78993eec981c4bea1f205509c3e81f"),
    ]:
        code, out, _ = run_cli(capsys, *argv, "subfield-lattice", "--p", "2", "--n", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _random_matrix(seed, p, n):
    # the n x n matrix of random.Random(seed) draws mod p, row by row, as
    # the JSON document --matrix reads
    rng = random.Random(seed)
    return json.dumps({"entries": [[rng.randrange(p) for _ in range(n)] for _ in range(n)]})


_GF9_MATRIX = '{"entries": [["1","1","0","2*t"],["t+1","1","0","t"],["0","1","t","0"],["t","2*t","1","2*t"]]}'


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the 400 x 400 ad of a GF(3) matrix through the inline mod-p rows,
        # its Smith finish on a 20-row block in GF(3)[X] on ints
        (("analyze-ad", "--field", "GF(3)", "--matrix", _random_matrix(20, 3, 20)), "0ed10b371aaa1c81"),
        # every f_R(Y) = prod (Y + b) multiplied out on the Zech tables
        (("subfield-lattice", "--p", "3", "--n", "4", "--a", "Z"), "b108de560a7cbf32"),
        (("subfield-lattice", "--p", "2", "--n", "4", "--a", "Z+1"), "8f18abae91e4b49f"),
        # f_R's coefficients mapped into F by a non-identity embedding table
        (("primitive-element", "--field", "GF(16)(Z)", "--n", "2", "--a", "Z", "--subspace", "t"),
         "7796b6fb22d64546"),
        (("primitive-element", "--field", "GF(64)(Z)", "--n", "3", "--a", "Z+1", "--subspace", "t,t^2"),
         "ee5f647d2a4bda28"),
        (("primitive-element", "--field", "GF(729)(Z)", "--n", "3", "--a", "Z", "--subspace", "t"),
         "a2533c5d280152a3"),
        (("primitive-element", "--field", "GF(16)", "--n", "2", "--a", "t", "--subspace", "t+1"),
         "5805c0dcf0444ed5"),
        # an irreducible q under --certify
        (("primitive-element", "--field", "GF(4)(Z)", "--n", "2", "--a", "Z", "--subspace", "t", "--certify"),
         "a101ce67e6348c71"),
        (("primitive-element", "--field", "GF(9)(Z)", "--n", "2", "--a", "Z", "--subspace", "1", "--certify"),
         "057d9dd0362297db"),
        # the oracle's CRT search: three p-th powers and one exhaustive search
        (("irreducible", "--K", "GF(3)", "--n", "1", "--e", "1", "--r", "3", "--g", "Z"), "2e7b8876412c932a"),
        (("irreducible", "--K", "GF(2)", "--n", "1", "--e", "1", "--r", "2", "--g", "Z^3+Z+1"), "b7b3cc3169a146d9"),
        (("irreducible", "--K", "GF(9)", "--n", "1", "--e", "1", "--r", "3", "--g", "Z+t"), "ad38198b60791475"),
        (("irreducible", "--K", "GF(4)", "--n", "1", "--e", "1", "--r", "1", "--g", "Z^3+t"), "d4345fe5c76091f4"),
        # degree-1 companions reaching c3 through the oracle
        (("analyze-ad", "--field", "GF(2)(Z)", "--poly", "X+Z"), "1e0e72a1385629bd"),
        (("analyze-ad", "--field", "GF(3)(Z)", "--poly", "X+Z^2+1"), "6d66e174e3c5e8d0"),
        # the Smith finish over GF(9)[X], with row and column sweeps on a
        # 5 x 5 block for the matrix
        (("analyze-ad", "--field", "GF(9)", "--poly", "X^9-X-t"), "8ea662cf53df2d6b"),
        (("analyze-ad", "--field", "GF(9)", "--matrix", _GF9_MATRIX), "7cd3e55788d881b9"),
        # the odd-p Smith finish on ints, on blocks of 6 and 5 rows
        (("analyze-ad", "--field", "GF(5)", "--matrix", _random_matrix(6, 5, 6)), "acc929ef7f8b5f61"),
        (("analyze-ad", "--field", "GF(7)", "--matrix", _random_matrix(5, 7, 5)), "8ca255b9d006955f"),
        # c3 by Ben-Or's test over GF(p^n), on the Frobenius chain: an
        # irreducible and a reducible quadratic over GF(729), an irreducible
        # one over a custom modulus, and a quintic over GF(625)
        (("analyze-ad", "--field", "GF(729)", "--poly", "X^2-X-t"), "d498006f6496e0b5"),
        (("analyze-ad", "--field", "GF(729)", "--poly", "X^2-t"), "9c90a0419e5f7acb"),
        (("analyze-ad", "--field", "GF(2^9; mod=t^9+t^4+1)", "--poly", "X^2+X+1"), "5409587303f40e99"),
        (("analyze-ad", "--field", "GF(625)", "--poly", "X^5-X-1"), "c608b9e2fffa46ff"),
    ],
)
def test_end_to_end_result_digest_is_pinned(capsys, argv, digest):
    # the first 16 hex digits of the SHA-256 of the canonical "result" JSON,
    # as the method-call row algebras, the rp.mul f_R product, the
    # per-element Horner embedding, the degree- and lead-testing CRT loop,
    # Rabin's test with a fresh pow_mod per exponent and the coprime-base
    # closing of every Smith diagonal gave it
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    canonical = json.dumps(json.loads(out)["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("subfield-lattice", "--p", "3", "--n", "6"), "subspace sweeps are capped"),
        (("subfield-lattice", "--p", "2", "--n", "0"), "need n >= 1"),
        (("subfield-lattice", "--p", "2", "--n", "-1"), "need n >= 1"),
        (("subfield-lattice", "--p", "4", "--n", "2"), "4 is not prime"),
        (("subfield-lattice", "--p", "2", "--n", "100000"), "exceeds cap"),
        (
            ("analyze-ad", "--field", "GF(729)(Z)", "--matrix",
             '{"entries": [["Z^2+Z", "0"], ["0", "0"]]}'),
            "root candidate count exceeds",
        ),
        (("dickson", "--p", "2", "--m", "-1"), "m >= 0"),
        # (t^3+t+1)(t^6+t+1): no factor below degree 3
        (("analyze-ad", "--field", "GF(2^9; mod=t^9+t^7+t^6+t^4+t^3+t^2+1)", "--poly", "X"),
         "modulus is reducible over the prime field"),
    ],
    ids=["lattice-over-cap", "lattice-n-0", "lattice-n-negative", "lattice-p-4",
         "lattice-huge-n", "root-candidate-cap", "dickson-m-negative", "reducible-modulus"],
)
def test_refusal_is_one_error_line_before_the_work(capsys, argv, message):
    # the p = 3, n = 6 lattice used to compute every primitive element of
    # dimension <= 2 (over 11000) before its dimension-3 cap refused it
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze-ad", "--field", "GF(1000000007)", "--poly", "X^2"),
         "field size 1000000007 exceeds cap 729"),
        (("analyze-ad", "--field", "GF(1000000000000000003^2)", "--poly", "X^2"),
         "field size 1000000000000000003^2 exceeds cap 729"),
        (("analyze-ad", "--field", "GF(3^100000000)", "--poly", "X^2"),
         "field size 3^100000000 exceeds cap 729"),
        (("decompose-tensor", "--p", "1000000000000000003", "--n", "1", "--m", "1"),
         "field size 1000000000000000003 exceeds cap 729"),
        (("primitive-element", "--field", "GF(4)(Z)", "--n", "1000000000", "--a", "Z"),
         "field size 2^1000000000 exceeds cap 729"),
        (("decompose-tensor", "--p", "4", "--n", "1", "--m", "1"), "4 is not prime"),
        (("irreducible", "--K", "GF(2)", "--n", "26", "--e", "1", "--r", "2", "--g", "Z",
          "--no-oracle"), "X-degree 2^27, over cap 65536"),
        (("irreducible", "--K", "GF(2)", "--n", "16", "--e", "1", "--r", "2", "--g", "Z"),
         "X-degree 2^17, over cap 65536"),
        (("irreducible", "--K", "GF(3)", "--n", "10", "--e", "1", "--r", "3", "--g", "Z"),
         "X-degree 3^11, over cap 65536"),
        (("irreducible", "--K", "GF(2)", "--n", "1", "--e", "1", "--r", "2048", "--g", "Z"),
         "Z-degree r * deg g = 2048, over cap 1024"),
        (("irreducible", "--K", "GF(2)", "--n", "1", "--e", "1", "--r", str(2**40), "--g", "Z"),
         f"Z-degree r * deg g = {2**40}, over cap 1024"),
        (("decompose-tensor", "--p", "2", "--n", "100000000", "--m", "134217728"),
         "100000000 blocks exceed cap 65536"),
        (("decompose-tensor", "--p", "2", "--n", "65537", "--m", "131072"),
         "65537 blocks exceed cap 65536"),
        # refused by the parse's X-degree bound: building the power over
        # GF(727)(Z) ran past 100 s, and ^200 took 9.1 s (2-core Xeon VM)
        (("analyze-ad", "--field", "GF(727)(Z)", "--poly", "(X+Z+1)^729"),
         "matrix size exceeds cap 9 over K(Z)"),
        (("analyze-ad", "--field", "GF(3)", "--poly", "(X+1)^33"),
         "matrix size exceeds cap 32"),
        # the bound is an upper bound, like the exponent cap: a degree that
        # cancels still counts
        (("analyze-ad", "--field", "GF(3)(Z)", "--poly", "X^10-X^10+X"),
         "matrix size exceeds cap 9 over K(Z)"),
        # degree 0 is refused before the primality test, which trial-divided
        # the prime up to its square root
        (("analyze-ad", "--field", "GF(1000000000000000003^0)", "--poly", "X"),
         "extension degree must be at least 2"),
        (("analyze-ad", "--field", "GF(1000000000000000003^0)(Z)", "--poly", "X"),
         "extension degree must be at least 2"),
    ],
    ids=["prime-order-1e9", "huge-prime-squared", "3-to-the-1e8", "tensor-huge-prime",
         "primitive-huge-n", "tensor-p-4", "witness-n-26", "witness-x-edge-2",
         "witness-x-edge-3", "witness-z-edge", "witness-huge-r", "tensor-formula-1e8",
         "tensor-formula-edge", "kz-poly-over-size-cap", "finite-poly-over-size-cap",
         "poly-bound-over-size-cap", "huge-prime-degree-0", "kz-huge-prime-degree-0"],
)
def test_caps_are_refused_before_the_work(capsys, argv, message):
    # each of these ran past a 5-10 s timeout, or ended in a MemoryError
    # traceback, before its cap was checked ahead of the work
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
    assert elapsed < 1.0


def test_a_root_of_multiplicity_4000_is_refused_within_3_s(capsys):
    # Z^2+Z+1 = (Z-1)^2 over GF(3): the root search factors (Z-1)^4000
    # before its cap refuses the candidates; dividing (Z-1) out one power at
    # a time took 10 s on a 2-core Xeon VM
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "analyze-ad", "--field", "GF(3)(Z)", "--poly", "X^2+(Z^2+Z+1)^2000*X"
    )
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "root candidate" in lines[0]
    assert elapsed < 3.0


def test_a_polynomial_over_the_oracle_cap_that_x_divides_answers(capsys):
    # total degree 16 is over the oracle's cap 12; X divides it, so c3 is
    # false without the oracle (this exited 2 when c3 came last)
    code, out, err = run_cli(
        capsys, "analyze-ad", "--field", "GF(3)(Z)", "--poly", "X^2+(Z^2+Z+1)^7*X"
    )
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["c3"] is False and result["c1"] is True


@pytest.mark.parametrize(
    "argv, condition",
    [
        # the inside edges of both witness caps, the costliest inputs they let through
        (("--K", "GF(2)", "--n", "15", "--e", "1", "--r", "2", "--g", "Z"), "pth-power"),
        (("--K", "GF(3)", "--n", "9", "--e", "1", "--r", "3", "--g", "Z"), "pth-power"),
        (("--K", "GF(4)", "--n", "15", "--e", "1", "--r", "2", "--g", "(Z+t)^511"), "pth-power"),
        (("--K", "GF(2)", "--n", "1", "--e", "1", "--r", "1024", "--g", "Z"), "pth-power"),
        # no witness: the criterion decides without building anything
        (("--K", "GF(2)", "--n", "26", "--e", "1", "--r", "3", "--g", "Z", "--no-oracle"),
         "r-coprime-to-p"),
        (("--K", "GF(2)", "--n", "26", "--g", "Z"), "r-coprime-to-p"),
    ],
    ids=["x-edge-2", "x-edge-3", "x-and-z-edge-dense-g", "z-edge", "no-witness", "oracle-out-of-reach"],
)
def test_irreducible_within_the_caps_runs_in_a_second(capsys, argv, condition):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "irreducible", *argv)
    elapsed = time.perf_counter() - t0
    assert code == 0
    result = json.loads(out)["result"]
    assert result["condition"] == condition
    # the oracle cannot reach any of these, so h = X^(p^(n+e)) - ... is never built for it
    assert result["oracle_checked"] is False and result["oracle_agrees"] is None
    assert elapsed < 1.0


def test_decompose_tensor_formula_at_its_block_cap_runs_in_a_second(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "decompose-tensor", "--p", "2", "--n", "65536", "--m", "65536")
    elapsed = time.perf_counter() - t0
    assert code == 0
    result = json.loads(out)["result"]
    assert result["method"] == "formula" and result["blocks"] == [65536] * 65536
    assert elapsed < 1.0


@pytest.fixture
def default_int_string_limit():
    """Python's default int-string limit of 4300 digits, whatever the
    environment sets."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integer strings of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        ("--field", "GF(" + "7" * 5000 + ")", "--poly", "X^2"),
        ("--field", "GF(2)", "--poly", "X+" + "1" * 5000),
        ("--field", "GF(2)", "--matrix", '{"entries": [[' + "1" * 5000 + "]]}"),
    ],
    ids=["field-spec", "poly", "matrix-json"],
)
def test_literal_over_the_int_string_limit_exits_2(capsys, default_int_string_limit, argv):
    # each of these ended in a ValueError traceback (exit 1)
    code, out, err = run_cli(capsys, "analyze-ad", *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "int-string limit" in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--poly", "(" * 3000 + "X" + ")" * 3000), "parentheses nest deeper than cap 100"),
        (("--matrix", "[" * 100000 + "]" * 100000), "nests too deeply"),
        (("--matrix", '{"entries": [["' + "(" * 3000 + "1" + ")" * 3000 + '"]]}'),
         "parentheses nest deeper than cap 100"),
    ],
    ids=["poly", "matrix-json", "matrix-entry"],
)
def test_deep_nesting_exits_2(capsys, argv, message):
    # the first two ended in a RecursionError traceback (exit 1)
    code, out, err = run_cli(capsys, "analyze-ad", "--field", "GF(2)", *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def test_nesting_at_the_cap_parses(capsys):
    depth = 100
    poly = "(" * depth + "X^2+X+1" + ")" * depth
    code, out, _ = run_cli(capsys, "analyze-ad", "--field", "GF(2)", "--poly", poly)
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2


def test_dickson_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dickson", "--p", "3", "--m", "1")
    res = json.loads(out)["result"]
    assert res["coefficients"]["f_0"] == "2*B_1^2"


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "decompose-tensor", "--p", "2", "--n", "1", "--m", "2"
    )
    assert code == 0
    assert "blocks" in out and "{" not in out.splitlines()[0]


def test_bad_field_exits_2(capsys):
    assert run_cli(capsys, "analyze-ad", "--field", "GF(6)", "--poly", "X")[0] == 2


def test_bad_poly_exits_2(capsys):
    assert run_cli(capsys, "analyze-ad", "--field", "GF(2)", "--poly", "X^2-W")[0] == 2


def test_missing_input_exits_2(capsys):
    assert run_cli(capsys, "analyze-ad", "--field", "GF(2)")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze-ad", "--field", "GF(3)", "--matrix", '{"field": "GF(3)", "entries": [["1'),
        ("analyze-ad", "--field", "GF(3)(Z)", "--poly", "X^2-X-1/(3*Z)"),
        ("analyze-ad", "--field", "GF(2^2; mod=t^2+t+1/t)", "--poly", "X"),
        ("decompose-tensor", "--p", "4", "--n", "1", "--m", "2"),
        ("decompose-tensor", "--p", "9", "--n", "2", "--m", "3"),
        ("analyze-ad", "--field", "GF(2)", "--matrix", "/missing.json"),
        ("analyze-ad", "--field", "GF(2)", "--matrix", "[1,2]"),
        ("analyze-ad", "--field", "GF(2)", "--matrix", '{"field":"GF(2)"}'),
        ("analyze-ad", "--field", "GF(4)", "--matrix", '{"entries": [[null]]}'),
        ("analyze-ad", "--field", "GF(4)", "--matrix", '{"entries": [[1.5]]}'),
        ("analyze-ad", "--field", "GF(2)(Z)", "--matrix", '{"entries": [[1.5]]}'),
        ("analyze-ad", "--field", "GF(2)(Z)", "--matrix", '{"entries": [[[1,2,3]]]}'),
        ("analyze-ad", "--field", "GF(2)(Z)", "--matrix", '{"entries": [[[[1],[0]]]]}'),
        ("analyze-ad", "--field", "GF(2)(Z)", "--matrix", '{"entries": [[[1,[1]]]]}'),
        ("analyze-ad", "--field", "GF(4)(Z)", "--matrix", '{"entries": [[[[1],[[1,0]]]]]}'),
        ("analyze-ad", "--field", "GF(2)", "--matrix", '{"entries": [[true]]}'),
        ("analyze-ad", "--field", "GF(4)", "--matrix", '{"entries": [[[true, false]]]}'),
        ("analyze-ad", "--field", "GF(2)(Z)", "--matrix", '{"entries": [[[[true],[1]]]]}'),
    ],
    ids=[
        "truncated-matrix-json", "zero-denominator", "division-in-modulus", "p-4", "p-9",
        "missing-matrix-file", "matrix-json-list", "matrix-json-without-entries",
        "null-ext-payload", "float-ext-payload", "float-kz-payload", "three-part-kz-payload",
        "zero-denominator-kz-payload", "int-numerator-kz-payload", "int-coefficient-kz-payload",
        "bool-prime-entry", "bool-ext-payload", "bool-kz-coefficient",
    ],
)
def test_malformed_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze-ad", "--field", "GF(2)(Z)", "--poly", "X^40000000-X"),
        ("irreducible", "--K", "GF(2)", "--n", "1", "--g", "Z^30000001"),
    ],
    ids=["analyze-ad-huge-exponent", "irreducible-huge-exponent"],
)
def test_huge_exponent_is_refused_before_the_power_is_built(capsys, argv):
    # either polynomial would take hundreds of MB; the parser must refuse
    # the exponent before building anything of that size
    import tracemalloc

    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "exceeds cap" in lines[0]
    assert elapsed < 1.0
    assert peak < 4 * 2**20


def test_byte_identical_reruns(capsys):
    args = ("analyze-ad", "--field", "GF(2)(Z)", "--poly", "X^2-X-Z", "--seed", "5")
    _, out1, _ = run_cli(capsys, args[0], *args[1:])
    _, out2, _ = run_cli(capsys, args[0], *args[1:])
    assert out1 == out2


def test_grid_quick_suite(capsys):
    code, out, err = run_cli(capsys, "grid", "--suite", "quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert "tensor: PASS" in err


def test_grid_unknown_suite(capsys):
    assert run_cli(capsys, "grid", "--suite", "nope")[0] == 2


def test_grid_single_suite(capsys):
    code, out, _ = run_cli(capsys, "grid", "--suite", "similarity")
    assert code == 0
    doc = json.loads(out)
    assert [s["suite"] for s in doc["suites"]] == ["similarity"]


def test_consistency_failure_exits_3(capsys, monkeypatch):
    # force a criterion/oracle disagreement to exercise the exit path
    import aslab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "bivariate_irreducible_oracle", lambda h: False)
    code, _, err = run_cli(
        capsys, "irreducible", "--K", "GF(2)", "--n", "1", "--g", "Z"
    )
    assert code == 3
    assert "consistency" in err


def _fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter."""
    env = dict(os.environ)
    src = str(pathlib.Path(aslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["COLUMNS"] = "80"
    done = subprocess.run(
        [sys.executable, "-m", "aslab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_consecutive_calls_print_what_a_fresh_process_prints(capsys, monkeypatch):
    # the parser is built once per process: no option, default or usage
    # error of one call may show in the next
    monkeypatch.setenv("COLUMNS", "80")
    plain = ["decompose-tensor", "--p", "2", "--n", "1", "--m", "2"]
    text = ["--format", "text", *plain]
    seeded = ["--seed", "5", *plain]
    usage_error = ["decompose-tensor", "--p", "two", "--n", "1", "--m", "2"]
    fresh = {tuple(argv): _fresh_process(argv) for argv in (plain, text, seeded, usage_error)}
    assert fresh[tuple(usage_error)][0] == 2
    for first, second in ((text, plain), (seeded, plain), (usage_error, plain)):
        for argv in (first, second):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh[tuple(argv)], argv
