import pathlib
import sys

# allow running the tests from a fresh checkout without installing
src = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

import pytest  # noqa: E402

from aslab import _ringops as rp  # noqa: E402
from aslab import ad_analyzer, linalg  # noqa: E402

MEMOS = (linalg._sylvester_divisors, ad_analyzer._ad_of_class)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts and ends with the process-wide memos empty
    (linalg._sylvester_divisors, ad_analyzer._ad_of_class): what a test
    counts or patches under them (invariant_factors, kron, irreducible)
    does not depend on the tests run before it, and a patched run leaves no
    entry behind."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def refuse_prime_ringops(monkeypatch):
    """A function that, once called, makes _ringops' gcd, sub, rem and
    divmod_ fail on a GF(p) descriptor for the rest of the test: over
    GF(p), F[X] belongs to _ringops.PrimeRing, on ints with no PrimeField
    method call.  Expected values are computed before the call."""

    def install():
        for name in ("gcd", "sub", "rem", "divmod_"):
            real = getattr(rp, name)

            def refusing(k, *args, real=real, name=name):
                assert getattr(k, "kind", None) != "prime", f"_ringops.{name} over {k}"
                return real(k, *args)

            monkeypatch.setattr(rp, name, refusing)

    return install

