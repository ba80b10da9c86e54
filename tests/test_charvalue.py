import json
from fractions import Fraction

import pytest

from glblocks import charvalue as C
from glblocks import glclass as G
from glblocks import qarith as Q
from glblocks.partitions import d_core, l_set_iterate, partitions_of
from glblocks.symchar import sn_char, z_order


def poly(*coeffs):
    return tuple(coeffs)


def test_kostka_foulkes_frozen_values():
    assert C.kostka_foulkes((2,), (2,)) == poly(1)
    assert C.kostka_foulkes((2,), (1, 1)) == poly(0, 1)            # t
    assert C.kostka_foulkes((3,), (1, 1, 1)) == poly(0, 0, 0, 1)   # t^3
    assert C.kostka_foulkes((3,), (2, 1)) == poly(0, 1)
    assert C.kostka_foulkes((2, 1), (1, 1, 1)) == poly(0, 1, 1)    # t + t^2
    assert C.kostka_foulkes((2, 2), (2, 1, 1)) == poly(0, 1)
    assert C.kostka_foulkes((1, 1), (2,)) == ()
    for lam in partitions_of(5):
        assert C.kostka_foulkes(lam, lam) == poly(1)


def test_kostka_dominance_and_counts():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                coeffs = C.kostka_foulkes(lam, mu)
                count = len(list(C.semistandard_tableaux(lam, mu)))
                assert sum(coeffs) == count
                if not C.dominates(lam, mu):
                    assert coeffs == ()
                if lam == mu:
                    assert coeffs == poly(1)
                # evaluation at 0 is the identity matrix
                at_zero = coeffs[0] if coeffs else 0
                assert at_zero == (1 if lam == mu else 0)


def test_charge_examples():
    assert C.charge((1, 2)) == 1
    assert C.charge((2, 1)) == 0
    assert C.charge((1, 2, 3)) == 3
    assert C.charge((3, 1, 2)) == 2
    assert C.charge((2, 1, 3)) == 1
    assert C.charge((2, 3, 1, 1)) == 1


def test_green_polynomial_rank_two():
    for q in (2, 3, 5, 7):
        assert C.green_polynomial((2,), (1, 1), q) == 1
        assert C.green_polynomial((2,), (2,), q) == 1
        assert C.green_polynomial((1, 1), (1, 1), q) == q + 1
        assert C.green_polynomial((1, 1), (2,), q) == 1 - q


def test_green_orthogonality():
    # sum over unipotent classes of Q_a Q_b / centralizer is z_a / |T_a|
    for k in range(1, 5):
        for big_q in (2, 3, 4, 9):
            for alpha in partitions_of(k):
                t_alpha = 1
                for part in alpha:
                    t_alpha *= big_q ** part - 1
                for beta in partitions_of(k):
                    total = sum(
                        Fraction(C.green_polynomial(mu, alpha, big_q) *
                                 C.green_polynomial(mu, beta, big_q),
                                 Q.unipotent_centralizer_order(mu, big_q))
                        for mu in partitions_of(k))
                    expected = Fraction(z_order(alpha), t_alpha) if alpha == beta else 0
                    assert total == expected, (k, big_q, alpha, beta)


def test_value_on_unipotent_rank_two():
    for q in (2, 3, 4, 5):
        assert C.value_on_unipotent((2,), (2,), q) == 1
        assert C.value_on_unipotent((2,), (1, 1), q) == 1
        assert C.value_on_unipotent((1, 1), (2,), q) == 0
        assert C.value_on_unipotent((1, 1), (1, 1), q) == q


def test_value_on_unipotent_matches_torus_sum():
    # the expansion over torus types that value_on_unipotent replaced:
    # sum over rho of chi^nu(rho) Q^mu_rho(q) / z_rho, integral and equal
    for n in range(1, 8):
        for q in (2, 3, 4, 5):
            for nu in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum((Fraction(sn_char(nu, rho) * C.green_polynomial(mu, rho, q),
                                          z_order(rho)) for rho in partitions_of(n)),
                                Fraction(0))
                    assert total.denominator == 1, (nu, mu, q)
                    assert total == C.value_on_unipotent(nu, mu, q), (nu, mu, q)


def test_trivial_label_value_is_one():
    for (n, q) in [(2, 3), (3, 2), (4, 3)]:
        for c in G.all_classes(n, q):
            assert C.chi_value((n,), c) == 1


def test_mn_step_single_hook_is_leg_sign():
    # peeling one companion block of a degree-D polynomial with k = 1
    out = dict(C.mn_step((1, 1), 2, (1,), 3))
    assert out == {(): -1}
    out = dict(C.mn_step((4,), 2, (1,), 3))
    assert out == {(2,): 1}
    out = dict(C.mn_step((2, 1), 2, (1,), 5))
    assert out == {}  # no 2-hook in the staircase


def test_mn_step_nonzero_on_reachable_targets_semisimple():
    # for a semisimple peeled part every reachable target carries a
    # nonzero coefficient
    for size in range(1, 9):
        for nu in partitions_of(size):
            for hook_degree in (1, 2, 3):
                for k in (1, 2, 3):
                    if k * hook_degree > size:
                        continue
                    out = dict(C.mn_step(nu, hook_degree, (1,) * k, 3))
                    reachable = l_set_iterate(nu, hook_degree, k)
                    assert set(out) <= set(reachable)
                    for lam in reachable:
                        assert out.get(lam, 0) != 0, (nu, hook_degree, k, lam)


def test_mn_step_can_vanish_for_non_semisimple_parts():
    # with a single Jordan block of size 2 the two torus terms cancel
    # exactly on some reachable targets; the values stay consistent (the
    # orthonormality suite pins them), so the map simply omits the target
    out = dict(C.mn_step((3, 2), 2, (2,), 3))
    assert out == {}
    assert l_set_iterate((3, 2), 2, 2) == frozenset({(1,)})
    out = dict(C.mn_step((2, 1, 1, 1), 1, (2, 1), 3))
    assert (2,) in l_set_iterate((2, 1, 1, 1), 1, 3)
    assert (2,) not in out and out[(1, 1)] == 3


def test_mn_step_targets_share_core():
    for nu in partitions_of(6):
        for out_lam, coef in C.mn_step(nu, 2, (2,), 2):
            assert d_core(out_lam, 2) == d_core(nu, 2)


def test_alpha_coefficients_identity():
    x0 = G.make_label(0, 3, (), ())
    for mu in partitions_of(4):
        assert C.alpha_coefficients(mu, x0, 3) == {mu: 1}


def test_mn_coefficient_records():
    x = G.make_label(2, 3, (), [((2, 0), (1,))])
    recs = C.mn_coefficient_records((3,), x, 3, 2)
    assert recs == (C.MNCoefficient((3,), (1,), ((1, 1),), 1),)
    for rec in C.mn_coefficient_records((2, 2), x, 3, 2):
        assert d_core(rec.target, 2) == d_core(rec.source, 2)


def test_alpha_paths_factors_nonzero():
    x = G.make_label(4, 3, (), [((2, 0), (1,)), ((2, 1), (1,))])
    for mu in partitions_of(6):
        paths = C.alpha_paths(mu, x, 3)
        for chain, coef in paths:
            assert coef != 0
            assert len(chain) == 3
        agg = C.alpha_coefficients(mu, x, 3)
        for lam, total in agg.items():
            assert total == sum(c for ch, c in paths if ch[-1] == lam)
            assert d_core(lam, 2) == d_core(mu, 2)


def test_vanishing_beyond_weight():
    from glblocks.glclass import class_d_weight
    from glblocks.partitions import d_weight
    for (n, q, d) in [(4, 3, 2), (4, 2, 3), (5, 2, 2)]:
        for nu in partitions_of(n):
            w = d_weight(nu, d)
            for c in G.all_classes(n, q):
                if class_d_weight(c, d) > w:
                    assert C.chi_value(nu, c) == 0


def test_orthonormality_full_group():
    # includes sizes where some aggregated peel coefficients vanish, which
    # pins every value those coefficients feed
    for (n, q) in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3),
                   (5, 2), (5, 3), (6, 2), (8, 2)]:
        classes = G.all_classes(n, q)
        cents = [G.centralizer_order(c) for c in classes]
        for nu in partitions_of(n):
            for nu2 in partitions_of(n):
                total = sum(Fraction(C.chi_value(nu, c) * C.chi_value(nu2, c), z)
                            for c, z in zip(classes, cents))
                assert total == (1 if nu == nu2 else 0), (n, q, nu, nu2)


def test_char_sign_and_degrees():
    for q in (2, 3):
        assert C.char_sign((2,), q) == 1
        assert C.unipotent_degree((1, 1), q) == q
        assert C.unipotent_degree((2, 1), q) == q * (q + 1)
        assert C.unipotent_degree((1, 1, 1), q) == q ** 3
        for nu in partitions_of(4):
            assert C.char_sign(nu, q) * C.value_on_unipotent(
                nu, (1, 1, 1, 1), q) > 0


def test_table_exports():
    tab = C.table(2, 3)
    blob = tab.to_json()
    assert blob == C.CharValueTable(2, 3).to_json()
    data = json.loads(blob)
    assert data["n"] == 2 and data["q"] == 3
    csv_text = tab.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + 2  # header + one row per partition of 2
    assert lines[0].startswith("nu,")
    # sign-corrected values at the identity are the degrees
    ident = G.identity_label(2, 3)
    assert tab.chi_character((1, 1), ident) == 3
    assert tab.chi_character((2,), ident) == 1


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        C.green_polynomial((2,), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        C.value_on_unipotent((2, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        C.chi_value((2, 1), G.identity_label(2, 3))
