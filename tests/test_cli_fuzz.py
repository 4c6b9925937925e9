"""Fuzzed argv over every subcommand of the CLI, as a hypothesis property.

Every input must end in exit code 0, 1, 2 or 3 and never in a traceback; an
exit 2 prints nothing on stdout and exactly one `error:` line on stderr
(after argparse's usage lines, when argparse refuses the argv).  Valid
inputs stay small (matrices of at most 3 x 3, degrees of at most 4), since a
large `analyze` is legitimately slow; the huge integers, specs and
expressions below must be refused by a cap before any work.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aslab import cli  # noqa: E402

HUGE = (10**9 + 7, 10**18 + 3, 2**64, 3**100, 10**40, 2**127 - 1)


def mostly_valid(valid, bad):
    """valid three times in five, bad or huge otherwise."""
    return st.integers(0, 4).flatmap(lambda i: bad if i < 2 else valid)


ints = mostly_valid(
    st.integers(1, 4), st.one_of(st.sampled_from(HUGE), st.sampled_from((-(10**20), -1, 0)))
)
small_ints = st.integers(-1, 4)

FINITE_SPECS = ("GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(9)", "GF(2^3; mod=t^3+t^2+1)", "GF(729)")
KZ_SPECS = ("GF(2)(Z)", "GF(3)(Z)", "GF(4)(Z)")
BAD_SPECS = (
    "GF(1000000007)", "GF(1000000000000000003^2)", "GF(3^100000000)", "GF(2^1000000000000)(Z)",
    "GF(1024)", "GF(6)", "GF(4^2)", "GF(0)", "GF(1^5)", "GF(2^0)", "GF(", "GF()", "", "Q",
    "GF(2)(Z)(Z)", "GF(2^2; mod=t^2)", "GF(2^2; mod=t^2+t+1/t)", "GF(2^2; mod=t^3+t+1)",
    "GF(x)", "GF(2)(Y)", "gf(2)",
)
specs = mostly_valid(st.sampled_from(FINITE_SPECS + KZ_SPECS), st.sampled_from(BAD_SPECS))
finite_specs = mostly_valid(st.sampled_from(FINITE_SPECS), st.sampled_from(KZ_SPECS + BAD_SPECS))

BAD_EXPRS = (
    "", "X^", "(", "X)", "X^^2", "X**", "X^99999999", "X^30000001", "Z^30000001",
    "(X^4096)^4096", "1/(Z-Z)", "X/0", "Y", "t", "X^-1", "2^X", "X+*2", "X^(1+1)",
    "(Z+1)^4097", str(10**40), "X^" + str(2**64),
)


@st.composite
def polys(draw, var="X", extra=("1",)):
    """A polynomial string in var of degree at most 4 over small constants."""
    atoms = ("1", "2", "3") + extra
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from(atoms))
        e = draw(st.integers(0, 4))
        terms.append(c if e == 0 else f"{c}*{var}^{e}")
    lead = draw(st.integers(1, 4))
    return f"{var}^{lead}+" + "+".join(terms)


def exprs(var="X", extra=("1",)):
    return mostly_valid(polys(var, extra), st.sampled_from(BAD_EXPRS))


@st.composite
def matrices(draw):
    size = draw(st.integers(1, 3))
    entries = [[draw(st.sampled_from(("0", "1", "2", "t", "Z", "t+1", "1/Z"))) for _ in range(size)]
               for _ in range(size)]
    text = json.dumps({"entries": entries})
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return text[: draw(st.integers(0, len(text) - 1))]  # truncated JSON
    if choice == 1:
        return draw(st.sampled_from(("[1,2]", '{"entries": [[null]]}', '{"entries": [[1.5]]}',
                                     '{"entries": [[true]]}', '{"entries": []}',
                                     '{"entries": [[1, 2], [3]]}', "/missing.json")))
    return text


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("analyze-ad", "decompose-tensor", "primitive-element",
                                    "subfield-lattice", "irreducible", "dickson", "grid")))
    num = lambda: str(draw(ints))  # noqa: E731
    if command == "analyze-ad":
        argv = ["--field", draw(specs)]
        source = draw(st.integers(0, 2))
        if source == 0:
            argv += ["--poly", draw(exprs("X", ("1", "t", "Z")))]
        elif source == 1:
            argv += ["--matrix", draw(matrices())]
    elif command == "decompose-tensor":
        # n stays small: a closed-formula answer lists n blocks
        argv = ["--p", num(), "--n", str(draw(small_ints)), "--m", num()]
        if draw(st.booleans()):
            argv += ["--alpha", draw(st.sampled_from(("0", "1", "2", "t", "Z", "")))]
    elif command == "primitive-element":
        argv = ["--field", draw(specs), "--n", num(), "--a", draw(exprs("Z", ("1", "t")))]
        argv += ["--subspace", draw(st.sampled_from(("", "1", "t", "1,t", "t,t", "1,", "Z", "(")))]
        if draw(st.booleans()):
            argv.append("--certify")
    elif command == "subfield-lattice":
        argv = ["--p", num(), "--n", num(), "--a", draw(st.sampled_from(("Z", "Z+1", "t", "(")))]
    elif command == "irreducible":
        argv = ["--K", draw(finite_specs), "--n", num(), "--e", num(), "--r", num(),
                "--g", draw(exprs("Z", ("1", "t", "Z")))]
        if draw(st.booleans()):
            argv.append("--no-oracle")
    elif command == "dickson":
        argv = ["--p", num(), "--m", num()]
    else:
        argv = ["--suite", draw(st.sampled_from(("similarity", "tensor", "nonexistent", "")))]
    if draw(st.booleans()):
        argv = ["--format", draw(st.sampled_from(("json", "text", "dot", "xml")))] + argv
    return [command] + argv


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_in_an_exit_code_with_at_most_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    usage_error = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code, usage_error = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert sum("error:" in line for line in lines) == 1, (argv, err)
        if not usage_error:
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
