"""Integer helpers that fields, field profiles, pointed, skeletons and the CLI
share without compiling one another: the deterministic primality test, and
the int in a field or profile code."""

from .errors import SizeGuardExceeded, UsageError

# Miller-Rabin with the 13 prime bases 2..41 is exact below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_GUARD = 3_317_044_064_679_887_385_961_980


def _is_prime(p: int) -> bool:
    """Deterministic primality test; SizeGuardExceeded above PRIME_TEST_GUARD,
    where the bases are no longer proven to suffice."""
    if p > PRIME_TEST_GUARD:
        raise SizeGuardExceeded(p, PRIME_TEST_GUARD)
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    # p > 41 here: a composite p <= 41 has a prime factor below 7
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _code_int(code: str, prefix: str, what: str) -> int:
    """The int after the prefix of a field or profile code."""
    try:
        return int(code[len(prefix):])
    except ValueError:
        raise UsageError(f"unknown {what}: {code!r}") from None
