import itertools

import pytest

from glblocks import bruteforce as BF
from glblocks import qarith as Q
from glblocks.errors import ScaleGuardError


def test_prime_power():
    assert Q.prime_power(8) == (2, 3)
    assert Q.prime_power(9) == (3, 2)
    assert Q.prime_power(5) == (5, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            Q.prime_power(bad)
    assert Q.prime_power(49) == (7, 2)


def test_prime_power_agrees_with_prime_factors():
    for q in range(10_001):
        factors = Q.prime_factors(q)
        if len(factors) != 1:
            with pytest.raises(ValueError):
                Q.prime_power(q)
            continue
        p, e = Q.prime_power(q)
        assert p == factors[0] and p ** e == q, q


def test_prime_power_at_scale():
    # roots and a deterministic prime test, no trial division: Mersenne
    # primes and their powers answer at once
    assert Q.prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    assert Q.prime_power((2 ** 31 - 1) ** 2) == (2 ** 31 - 1, 2)
    assert Q.prime_power(3 ** 40) == (3, 40)
    # a Carmichael number, and a strong pseudoprime to bases 2, 3, 5 and 7
    for composite in (561, 3_215_031_751):
        with pytest.raises(ValueError):
            Q.prime_power(composite)
    with pytest.raises(OverflowError):
        Q.prime_power(Q.PRIME_TEST_BOUND)


def moebius(n):
    """mu(n) by trial division, with no shared factoriser."""
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def moebius_necklace_count(q, d):
    """The reference: the Moebius sum over every divisor of d, found by a scan."""
    return sum(moebius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def test_necklace_count_is_the_moebius_sum():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        for d in range(1, 200):
            assert Q.necklace_count(q, d) == moebius_necklace_count(q, d), (q, d)


def test_prime_factors_match_a_sieve():
    # the distinct prime factors of every m <= 2,000, from a sieve of Eratosthenes
    top = 2000
    factors = [[] for _ in range(top + 1)]
    for p in range(2, top + 1):
        if not factors[p]:  # no smaller prime divides p
            for m in range(p, top + 1, p):
                factors[m].append(p)
    assert [Q.prime_factors(m) for m in range(top + 1)] == [tuple(f) for f in factors]


def test_count_examples():
    assert Q.necklace_count(2, 2) == Q.non_unipotent_count(2, 2) == 1
    assert Q.necklace_count(3, 2) == Q.non_unipotent_count(3, 2) == 3
    assert Q.necklace_count(2, 1) == 2
    assert Q.non_unipotent_count(2, 1) == 0
    assert Q.non_unipotent_count(3, 1) == 1
    for bad in ((6, 2), (3, 0)):
        with pytest.raises(ValueError):
            Q.non_unipotent_count(*bad)


def test_enumeration_matches_count():
    for q in (2, 3, 4, 5):
        for d in range(1, 9):
            if q ** d > 10 ** 5:
                continue
            polys = BF.enumerate_irreducibles(q, d)
            assert len(polys) == Q.necklace_count(q, d) - (d == 1)  # X is not listed
            # canonical order: coefficients read from the top down, distinct
            assert sorted(set(polys), key=lambda f: f[::-1]) == list(polys)


def test_enumeration_examples():
    assert BF.enumerate_irreducibles(2, 2) == ((1, 1, 1),)
    assert BF.enumerate_irreducibles(3, 1) == ((1, 1), (2, 1))
    assert len(BF.enumerate_irreducibles(2, 3)) == 2


def poly_divmod(fq, a, b):
    """Reference division with remainder over F_q, coefficients lowest first."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 1)
    inv_lead = fq.inv[b[-1]]
    while len(rem) - 1 >= db and any(rem):
        lead = rem[-1]
        if lead == 0:
            rem.pop()
            continue
        coef = fq.mul[lead][inv_lead]
        pos = len(rem) - 1 - db
        quot[pos] = coef
        for i in range(db + 1):
            rem[pos + i] = fq.add[rem[pos + i]][fq.neg[fq.mul[coef][b[i]]]]
        rem.pop()
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem if rem else (0,))


def test_enumerated_polynomials_are_irreducible():
    # no roots and no proper monic factor, checked by exhaustive division
    for q, d in [(2, 4), (3, 3), (4, 2), (5, 2)]:
        fq = BF.field(q)
        lower = [f for dd in range(1, d) for f in BF.enumerate_irreducibles(q, dd)] + [(0, 1)]
        for f in BF.enumerate_irreducibles(q, d):
            for div in lower:
                _, rem = poly_divmod(fq, f, div)
                assert any(rem)


def test_enumeration_guard():
    with pytest.raises(ScaleGuardError):
        BF.enumerate_irreducibles(2, 25)


def test_x_minus_one_pool():
    # X-1 comes first, named "u"; the degree-1 names skip it and reindex
    assert BF._poly_pool(1, 3) == (((2, 1), "u"), ((1, 1), "f1.0"))
    assert Q.non_unipotent_count(3, 1) == 1
    assert Q.non_unipotent_count(2, 1) == 0
    assert Q.non_unipotent_count(4, 1) == 2
    assert BF._poly_pool(1, 4)[0] == ((1, 1), "u")  # -1 = 1 in characteristic 2
    assert [name for _, name in BF._poly_pool(2, 4)] == \
        ["u", "f1.0", "f1.1"] + [f"f2.{i}" for i in range(Q.non_unipotent_count(4, 2))]


def _det_prime_field(p, A):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            ln = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod = prod * A[i][perm[i]] % p
        total = (total + sign * prod) % p
    return total


def test_gl_order_brute_force():
    # count invertible matrices directly over the prime fields
    for n, p, expected in [(2, 2, 6), (3, 2, 168), (2, 3, 48)]:
        count = 0
        for entries in itertools.product(range(p), repeat=n * n):
            A = [entries[i * n:(i + 1) * n] for i in range(n)]
            if _det_prime_field(p, A) != 0:
                count += 1
        assert count == expected == Q.gl_order(n, p)
    assert Q.gl_order(1, 7) == 6
    assert Q.gl_order(0, 3) == 1


def test_torus_order():
    # a torus over F_(q^d) is one over F_q with its parts scaled by d
    q, d = 3, 2
    for k in (1, 2, 3):
        assert Q.torus_order((1,) * k, q ** d) == (q ** d - 1) ** k
    assert Q.torus_order((2,), 2 ** 3) == 2 ** 6 - 1
    assert Q.torus_order((2, 1), 2) == 3


def test_unipotent_centralizer_special_cases():
    for n in (1, 2, 3, 4):
        for q in (2, 3, 4, 5):
            assert Q.unipotent_centralizer_order((1,) * n, q) == Q.gl_order(n, q)
    # single Jordan block of size 1 over the extension field
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            assert Q.unipotent_centralizer_order((1,), q ** n) == q ** n - 1
    assert Q.unipotent_centralizer_order((3,), 2) == 4
    assert Q.unipotent_centralizer_order((), 5) == 1


def test_extension_fields_of_degree_six_and_seven():
    # every nonzero element has an inverse and multiplying by it permutes
    # the field, so the modulus found is irreducible
    for q in (64, 128):
        fq = BF.field(q)
        for a in range(1, q):
            assert fq.mul[a][fq.inv[a]] == 1
            assert sorted(fq.mul[a]) == list(range(q))


def test_field_arithmetic():
    for q in (2, 3, 4, 5, 8, 9):
        fq = BF.field(q)
        for a in range(q):
            assert fq.add[a][fq.neg[a]] == 0
            if a:
                assert fq.mul[a][fq.inv[a]] == 1
            for b in range(q):
                assert fq.add[a][b] == fq.add[b][a]
                assert fq.mul[a][b] == fq.mul[b][a]
        # distributivity spot checks
        for a in range(q):
            for b in range(q):
                for c in (0, 1, q - 1):
                    lhs = fq.mul[a][fq.add[b][c]]
                    rhs = fq.add[fq.mul[a][b]][fq.mul[a][c]]
                    assert lhs == rhs
