"""Acceptance criteria, one test per criterion.

Each test runs the corresponding grid from aslab.acceptance at its stated
exact tolerances and prints a single PASS/FAIL line; the determinism
criterion reruns every suite and compares the JSON byte for byte.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from aslab import acceptance
from aslab.fields import enumerate_elements, make_field
from aslab.poly import Poly

SEED = 0
# first 16 hex digits of the SHA-256 of each suite's canonical JSON at SEED;
# a change here is a change of results and must be justified as a fix
SUITE_HASHES = {
    "forward": "8e6c3bcb95ae1692",
    "converse": "011652424b202e90",
    "tensor": "2c2a7ba9d28c0eac",
    "blocksum": "3689de0286c14d21",
    "dickson": "08ac28929a1d4aa3",
    "irred": "1ebe787923b2dc0e",
    "similarity": "e9f7ec967ab42d4a",
}


@pytest.fixture(scope="module")
def suite_results():
    return {name: runner(seed=SEED) for name, runner in acceptance.SUITES.items()}


def _report(name, result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {name}: {status}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  failed: {check['check']}")
    assert result["passed"], f"criterion {name} failed"


def test_criterion_1_forward_suite(suite_results):
    """Eigenvalues, eigenspace dimensions, invariant factors and
    diagonalizability on the full forward grid, all exact."""
    _report("1 (forward analysis)", suite_results["forward"])


def test_criterion_2_converse_suite(suite_results):
    """200 seeded matrices per prime field: passes recover an irreducible
    defining polynomial, failures name a violated condition."""
    _report("2 (converse recovery)", suite_results["converse"])


def test_criterion_3_tensor_suite(suite_results):
    """Closed formula equals the rank oracle; frozen decompositions ([2,2]
    and [4,2]) and the binomial divisibility lemma hold."""
    _report("3 (tensor decompositions)", suite_results["tensor"])


def test_criterion_4_blocksum_suite(suite_results):
    """Elementary divisor formula matches the explicit commutator matrix on
    the full block-sum grid."""
    _report("4 (block-sum elementary divisors)", suite_results["blocksum"])


def test_criterion_5_dickson_suite(suite_results):
    """Degree law, route agreement and the property-P equivalence for every
    subspace; the large-field root-plane example reproduces exactly."""
    _report("5 (primitive elements)", suite_results["dickson"])


def test_criterion_6_irreducibility_suite(suite_results):
    """Criterion vs oracle on the full grid (>= 120 instances) plus the
    named irreducible and reducible instances."""
    result = suite_results["irred"]
    grid = result["checks"][0]
    assert grid.get("instances", 0) >= 120, "grid smaller than required"
    _report("6 (irreducibility)", result)


def test_criterion_7_similarity_suite(suite_results):
    """Shift similarity and the Pascal identity on 20 seeded pairs; the
    composition block decomposition on 10 seeded pairs."""
    _report("7 (similarity lemmas)", suite_results["similarity"])


def test_criterion_8_determinism(suite_results):
    """Every suite rerun with the same seed is byte-identical, and hashes to
    its pinned value, so the bytes also match across commits."""
    ok = True
    for name in acceptance.SUITES:
        first = json.dumps(suite_results[name], separators=(",", ":")).encode()
        again = acceptance.suite_json(name, seed=SEED)
        if first != again:
            ok = False
            print(f"  suite {name} is not byte-stable")
        digest = hashlib.sha256(first).hexdigest()[:16]
        if digest != SUITE_HASHES[name]:
            ok = False
            print(f"  suite {name} hashes to {digest}, pinned {SUITE_HASHES[name]}")
    print(f"criterion 8 (determinism): {'PASS' if ok else 'FAIL'}")
    assert ok


BENCH_FILES = sorted((pathlib.Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_records_the_pinned_suite_hashes(path):
    # each committed measurement ran on code whose suites hash as pinned here
    suites = json.loads(path.read_text())["acceptance_suites"]["suites"]
    assert {name: suite["hash"] for name, suite in suites.items()} == SUITE_HASHES


def _load_tracer():
    """perfbench/tracer.py, which is not a package, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_every_original():
    # a refactor that renames or drops a traced name fails here, not only
    # in a traced benchmark run; uninstall must leave aslab as it was
    tracer = _load_tracer()
    from aslab import cli, dickson  # noqa: F401  (the modules install loads)

    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "aslab"}
    targets = [(module, name) for module, names in tracer.SPAN_TARGETS.items() for name in names]
    targets += [
        (module, name if owner is None else f"{owner}.{name}")
        for module, owner, names in tracer.LEAF_TARGETS.values()
        for name in names
    ]
    targets += [(module, f"{owner}.{name}") for module, owner, name in tracer.COUNT_TARGETS]

    def resolve(module, target):
        """(owner, attribute name, current value) of a target."""
        owner, attr = modules["aslab." + module], target
        if "." in target:
            name, attr = target.split(".")
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)

    resolved = [resolve(*target) for target in targets]
    originals = [value for _, _, value in resolved]
    owners = {id(owner): owner for owner, _, _ in resolved}
    owners.update((id(mod), mod) for mod in modules.values())
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    installed = tracer.Tracer()
    installed.install()
    try:
        # every name resolved and was replaced by its wrapper
        assert [target for target, old in zip(targets, originals) if resolve(*target)[2] is old] == []
        assert len(installed._undo) >= len(targets)
    finally:
        installed.uninstall()
    for key, owner in owners.items():
        now = vars(owner)
        assert now.keys() == before[key].keys(), owner
        assert [attr for attr, value in before[key].items() if now[attr] is not value] == [], owner
    assert all(resolve(*target)[2] is old for target, old in zip(targets, originals))


@pytest.mark.parametrize(
    "spec, payload", [("GF(2)", 1), ("GF(3)", 2), ("GF(4)", (0, 1)), ("GF(9)", (1, 1))]
)
def test_generator_element_is_the_first_of_full_order(spec, payload):
    # GF(4) = GF(2)[t]/(t^2+t+1): t has order 3; GF(9) = GF(3)[t]/(t^2+1):
    # 2 has order 2, t order 4, and 1+t, squaring to 2t, order 8
    assert acceptance._generator_element(make_field(spec)).payload == payload


@pytest.mark.xfail(
    strict=True,
    reason="the source display simplifies the product of the degree-3 additive "
    "shifts to Y^9-Y^3-Y, but expanding (Y^3-Y)(Y^3-Y-1)(Y^3-Y-2) mod 3 gives "
    "Y^9+Y^3+Y; the stated polynomial has no root plane in GF(3^6) at all",
)
def test_criterion_5_literal_display_value():
    f729 = make_field("GF(729)")
    roots = [x for x in enumerate_elements(f729) if x**9 - x**3 - x == 0]
    assert len(roots) == 9  # fails: only 0 survives
    prod = Poly.one(f729)
    for j in range(3):
        prod = prod * (
            Poly.x_power(f729, 3) - Poly.x(f729) - Poly.constant(f729, f729.element(j))
        )
    assert prod == Poly.x_power(f729, 9) - Poly.x_power(f729, 3) - Poly.x(f729)
