import itertools
from fractions import Fraction

import pytest

from glblocks import symchar as S
from glblocks.partitions import partitions_of, rim_hooks
from glblocks.chains import find_simple_disjoint
from glblocks.symchar import signed_removal_map
from hookref import l_set_iterate, sn_char
from paperref import restricted_inner_product, sn_l_blocks


def scaled_type(alpha: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Cycle type with every cycle length multiplied by d."""
    return tuple(sorted((a * d for a in alpha), reverse=True))


def phi_coeff(mu, eta, alpha: tuple[int, ...], d: int) -> int:
    """Signed expansion coefficient for peeling the scaled type of alpha."""
    mu, eta, alpha = tuple(mu), tuple(eta), tuple(alpha)
    if sum(mu) - sum(eta) != sum(alpha) * d:
        raise ValueError("size mismatch: |mu| - |eta| must equal |alpha|*d")
    if eta not in l_set_iterate(mu, d, sum(alpha)):
        raise ValueError(f"{eta} is not reachable from {mu} by removing {sum(alpha)} {d}-hooks")
    return signed_removal_map(mu, alpha, d).get(eta, 0)


def chi(lam, rho) -> int:
    """chi^lam(rho), read off the engine's character table of S_n."""
    at = S.partition_index(sum(lam))
    return S.character_table(sum(lam))[at[rho]][at[lam]]


def perm_cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        parts.append(ln)
    return tuple(sorted(parts, reverse=True))


def test_standard_representation_oracle_s3():
    # fixed points minus one, summed over the 6 permutations, per class
    values = {}
    counts = {}
    for perm in itertools.permutations(range(3)):
        rho = perm_cycle_type(perm)
        fix = sum(1 for i in range(3) if perm[i] == i)
        values.setdefault(rho, set()).add(fix - 1)
        counts[rho] = counts.get(rho, 0) + 1
    for rho, vals in values.items():
        assert vals == {chi((2, 1), rho)}
    assert chi((2, 1), (1, 1, 1)) == 2
    assert chi((2, 1), (2, 1)) == 0
    assert chi((2, 1), (3,)) == -1
    assert counts == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert chi((n,), rho) == 1
            sign = (-1) ** (n - len(rho))
            assert chi((1,) * n, rho) == sign
    assert chi((1, 1, 1), (3,)) == 1


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        sn_char((2, 1), (2, 2))


def test_column_orthogonality():
    for n in range(1, 9):
        parts = partitions_of(n)
        for alpha in parts:
            for beta in parts:
                total = sum(chi(lam, alpha) * chi(lam, beta)
                            for lam in parts)
                assert total == (S.z_order(alpha) if alpha == beta else 0)


def test_character_table_matches_the_entry_recursion():
    # one Murnaghan-Nakayama step per column against the per-entry recursion
    for n in range(11):
        parts = partitions_of(n)
        assert S.character_table(n) == tuple(tuple(sn_char(lam, rho) for lam in parts)
                                             for rho in parts)


def test_row_orthogonality():
    # sum_rho chi^lam(rho) chi^mu(rho) / z_rho = delta_{lam, mu}
    for n in range(11):
        parts = partitions_of(n)
        rows = list(zip(*S.character_table(n)))
        for i, row in enumerate(rows):
            for j, other in enumerate(rows):
                total = sum(Fraction(x * y, S.z_order(rho))
                            for x, y, rho in zip(row, other, parts))
                assert total == (i == j), (n, parts[i], parts[j])


def sn_char_peel_order(lam, rho, largest_first: bool = True) -> int:
    """S_n character by the hook-removal recursion, peeling cycles in a chosen order."""
    rho = tuple(sorted(rho, reverse=largest_first))
    if not lam:
        return 1
    t = rho[0]
    return sum((-1) ** hk.leg_length * sn_char_peel_order(hk.result, rho[1:], largest_first)
               for hk in rim_hooks(lam, t))


def test_peel_order_independence():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for rho in partitions_of(n):
                a = sn_char_peel_order(lam, rho, largest_first=True)
                b = sn_char_peel_order(lam, rho, largest_first=False)
                assert a == b == chi(lam, rho)


def test_z_order():
    assert S.z_order((1, 1, 1)) == 6
    assert S.z_order((2, 1)) == 2
    assert S.z_order((3,)) == 3
    assert S.z_order(()) == 1


def test_scaled_type():
    assert scaled_type((2, 1, 1), 3) == (6, 3, 3)


def test_phi_expansion_reproduces_characters():
    # peeling the scaled part of a cycle type through the signed removal
    # coefficients reproduces the full character value
    for m in range(2, 9):
        for d in (2, 3):
            for k in range(1, m // d + 1):
                rest = m - k * d
                for mu in partitions_of(m):
                    for alpha in partitions_of(k):
                        coeffs = S.signed_removal_map(mu, alpha, d)
                        for rho in partitions_of(rest):
                            full_type = tuple(sorted(scaled_type(alpha, d) + rho,
                                                     reverse=True))
                            direct = chi(mu, full_type)
                            expanded = sum(c * chi(eta, rho)
                                           for eta, c in coeffs.items())
                            assert direct == expanded, (mu, alpha, d, rho)


def test_phi_coeff_validation_and_single_hook():
    with pytest.raises(ValueError):
        phi_coeff((3, 1), (1,), (2,), 2)  # size gap 3 is not 2*2
    # a single removed hook contributes its leg sign
    assert phi_coeff((4,), (2,), (1,), 2) == 1
    assert phi_coeff((3, 1), (1, 1), (1,), 2) == 1
    assert phi_coeff((2, 1, 1), (2,), (1,), 2) == -1
    with pytest.raises(ValueError):
        phi_coeff((4,), (1, 1), (1,), 2)  # unreachable target


def test_phi_coeff_identity_type_is_path_sign_sum():
    # for the all-ones type the coefficient is the signed count of k-step
    # hook removal sequences, enumerated here by direct depth-first search
    from glblocks.partitions import rim_hooks

    def signed_sequences(mu, d, k, eta):
        total = 0

        def rec(cur, left, sign):
            nonlocal total
            if left == 0:
                if cur == eta:
                    total += sign
                return
            for hk in rim_hooks(cur, d):
                rec(hk.result, left - 1, sign * (-1) ** hk.leg_length)

        rec(mu, k, 1)
        return total

    for mu in partitions_of(6):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            for eta in l_set_iterate(mu, d, k):
                assert phi_coeff(mu, eta, (1,) * k, d) == \
                    signed_sequences(mu, d, k, eta)


def test_simple_partition_kills_nontrivial_types():
    mu = find_simple_disjoint((), 2, 3, frozenset())
    assert S.signed_removal_map(mu, (2,), 3) == {}
    mu2 = find_simple_disjoint((1,), 3, 4, frozenset())
    assert S.signed_removal_map(mu2, (2, 1), 4) == {}
    assert S.signed_removal_map(mu2, (3,), 4) == {}


def test_l_blocks_match_core_grouping():
    for n in range(1, 7):
        for ell in (2, 3, 4, 5):
            assert sn_l_blocks(n, ell) == S.same_core_grouping(n, ell)


def test_l_blocks_large_ell_singletons():
    for n in (2, 3, 4):
        blocks = sn_l_blocks(n, n + 1)
        assert all(len(b) == 1 for b in blocks)
        assert len(blocks) == len(partitions_of(n))


def test_block_examples():
    assert sn_l_blocks(3, 2) == (frozenset({(2, 1)}),
                                   frozenset({(3,), (1, 1, 1)}))
    assert sn_l_blocks(5, 3) == S.same_core_grouping(5, 3)


def test_restricted_inner_product_full_group():
    for n in (3, 4, 5):
        classes = partitions_of(n)
        for lam in classes:
            for mu in classes:
                val = restricted_inner_product(lam, mu, classes)
                assert val == (1 if lam == mu else 0)
