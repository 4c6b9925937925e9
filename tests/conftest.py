import pathlib
import sys

# allow running the tests from a fresh checkout without installing
src = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

import pytest  # noqa: E402

from aslab import _ringops as rp  # noqa: E402
from aslab import linalg  # noqa: E402


@pytest.fixture(autouse=True)
def cold_sylvester_memo():
    """Every test starts and ends with linalg._sylvester_divisors' process-wide
    memo empty: what a test counts or patches under it (invariant_factors,
    kron) does not depend on the tests run before it, and a patched run
    leaves no entry behind."""
    linalg._sylvester_divisors.cache_clear()
    yield
    linalg._sylvester_divisors.cache_clear()


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

