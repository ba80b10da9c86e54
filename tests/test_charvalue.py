import json
import re
from fractions import Fraction

import pytest

from glblocks import bftable as BT
from glblocks import charvalue as C
from glblocks import classlist as CL
from glblocks import glclass as G
from glblocks import qarith as Q
from glblocks.charvalue import _unipotent_values
from glblocks.partitions import conjugate, d_core, n_stat, partitions_of
from glblocks.symchar import partition_index, z_order
from greenref import green_polynomial, unipotent_values
from hookref import l_set_iterate, sn_char
import labelref as L
import sectionref as R


def value_on_unipotent(nu: tuple[int, ...], mu: tuple[int, ...], q: int) -> int:
    """Unipotent character labeled nu at the unipotent class mu.

    This is the modified Kostka-Foulkes value K~_{nu,mu}(q) =
    q^n(mu) K_{nu,mu}(1/q), an integer; 0 unless nu dominates mu.
    """
    if sum(nu) != sum(mu):
        raise ValueError("size mismatch")
    at = partition_index(sum(mu))
    return _unipotent_values(sum(mu), q)[at[mu]][at[nu]]


def green(mu: tuple[int, ...], rho: tuple[int, ...], q: int) -> int:
    """The engine's Green value Q^mu_rho(q), read off its table."""
    at = partition_index(sum(mu))
    return C.green_values(sum(mu), q)[at[mu]][at[rho]]


def step(nu: tuple[int, ...], degree: int, jordan: tuple[int, ...], q: int):
    """The mn_step row of nu as (target partition, coefficient) pairs."""
    n = sum(nu)
    targets, coefficients = C.mn_step(n, degree, jordan, q)[partition_index(n)[nu]]
    lams = partitions_of(n - degree * sum(jordan))
    return tuple((lams[i], a) for i, a in zip(targets, coefficients))


def vector(t, q) -> dict[tuple[int, ...], int]:
    """{nu: chi^nu(t)} over the partitions of t.n, zeros omitted."""
    return {nu: v for nu, v in zip(partitions_of(t.n), C.class_values(t, q)) if v}


def poly(*coeffs):
    return tuple(coeffs)


# -- reference oracle: Kostka-Foulkes polynomials by the charge statistic -------

def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam >= mu in dominance order (equal sizes assumed)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def semistandard_tableaux(shape: tuple[int, ...], weight: tuple[int, ...]):
    """Yield SSYT of the given shape and weight as tuples of row tuples."""
    rows = len(shape)

    def fill(row_idx, prev_row, remaining):
        if row_idx == rows:
            yield ()
            return
        width = shape[row_idx]

        def fill_row(col, row_acc, rem):
            if col == width:
                for rest in fill(row_idx + 1, row_acc, rem):
                    yield (row_acc,) + rest
                return
            lo = row_acc[col - 1] if col > 0 else 1
            for v in range(lo, len(rem) + 1):
                if rem[v - 1] == 0:
                    continue
                if prev_row is not None and prev_row[col] >= v:
                    continue
                rem2 = rem[:v - 1] + (rem[v - 1] - 1,) + rem[v:]
                yield from fill_row(col + 1, row_acc + (v,), rem2)

        yield from fill_row(0, (), remaining)

    yield from fill(0, None, tuple(weight))


def reading_word(tab) -> tuple[int, ...]:
    """Rows read left to right, bottom row first."""
    out = []
    for row in reversed(tab):
        out.extend(row)
    return tuple(out)


def charge(word: tuple[int, ...]) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are extracted by scanning for the rightmost 1, then
    the rightmost next letter to its left (wrapping when none); each
    subword contributes indices that increase exactly when the next
    letter sits to the right of the previous one.
    """
    remaining = list(word)
    total = 0
    while remaining:
        maxletter = max(remaining)
        positions = []
        pos = None
        for v in range(1, maxletter + 1):
            candidates = [i for i, x in enumerate(remaining) if x == v]
            if not candidates:
                break
            if pos is None:
                pick = max(candidates)
            else:
                left = [i for i in candidates if i < pos]
                pick = max(left) if left else max(candidates)
            positions.append(pick)
            pos = pick
        index = 0
        for v in range(1, len(positions)):
            if positions[v] > positions[v - 1]:
                index += 1
            total += index
        for i in sorted(positions, reverse=True):
            remaining.pop(i)
    return total


def kostka_foulkes(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients (ascending powers of t) of K_{lam,mu}(t).

    Sum of t**charge over semistandard tableaux of shape lam and weight
    mu; the zero polynomial is the empty tuple.
    """
    if sum(lam) != sum(mu):
        raise ValueError("shape and weight have different sizes")
    if not dominates(lam, mu):
        return ()
    coeffs: list[int] = []
    for tab in semistandard_tableaux(lam, mu):
        c = charge(reading_word(tab))
        if c >= len(coeffs):
            coeffs.extend([0] * (c + 1 - len(coeffs)))
        coeffs[c] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# -- reference: the per-label fold that class_values replaced -----------------

def compose_steps(start: tuple[int, ...], components, q: int):
    """Fold mn_step over (degree, jordan) components; map target -> int."""
    state = {start: 1}
    for degree, jordan in components:
        nxt: dict[tuple[int, ...], int] = {}
        for part, coef in state.items():
            for lam, a in step(part, degree, jordan, q):
                nxt[lam] = nxt.get(lam, 0) + coef * a
        state = {p: c for p, c in nxt.items() if c != 0}
        if not state:
            return {}
    return state


def label_chi_value(nu, c):
    """Value of the unipotent character nu at the label c, folded over its own
    components in sorted(c.support) order, uncached."""
    if sum(nu) != c.n:
        raise ValueError("label size differs from the class's n")
    components = tuple((key.degree, part) for key, part in sorted(c.support))
    state = compose_steps(nu, components, c.q)
    return sum(coef * value_on_unipotent(lam, c.unipotent, c.q)
               for lam, coef in state.items())


def unipotent_degree(nu: tuple[int, ...], q: int) -> int:
    """Degree of the unipotent character nu, positive by the q-hook formula."""
    degree = value_on_unipotent(nu, (1,) * sum(nu), q)
    if degree <= 0:
        raise AssertionError(f"unipotent degree of {nu} at q = {q} is {degree}")
    return degree


def peel_sequences(start: tuple[int, ...], components, q: int):
    """Per-sequence coefficients: list of (intermediate partitions, product).

    One entry per chain of intermediate partitions through the peels;
    every single-step factor is nonzero by construction.
    """
    seqs = [((start,), 1)]
    for degree, jordan in components:
        nxt = []
        for chain, coef in seqs:
            for lam, a in step(chain[-1], degree, jordan, q):
                nxt.append((chain + (lam,), coef * a))
        seqs = nxt
    return seqs


def test_kostka_foulkes_frozen_values():
    assert kostka_foulkes((2,), (2,)) == poly(1)
    assert kostka_foulkes((2,), (1, 1)) == poly(0, 1)            # t
    assert kostka_foulkes((3,), (1, 1, 1)) == poly(0, 0, 0, 1)   # t^3
    assert kostka_foulkes((3,), (2, 1)) == poly(0, 1)
    assert kostka_foulkes((2, 1), (1, 1, 1)) == poly(0, 1, 1)    # t + t^2
    assert kostka_foulkes((2, 2), (2, 1, 1)) == poly(0, 1)
    assert kostka_foulkes((1, 1), (2,)) == ()
    for lam in partitions_of(5):
        assert kostka_foulkes(lam, lam) == poly(1)


def test_kostka_dominance_and_counts():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                coeffs = kostka_foulkes(lam, mu)
                count = len(list(semistandard_tableaux(lam, mu)))
                assert sum(coeffs) == count
                if not dominates(lam, mu):
                    assert coeffs == ()
                if lam == mu:
                    assert coeffs == poly(1)
                # evaluation at 0 is the identity matrix
                at_zero = coeffs[0] if coeffs else 0
                assert at_zero == (1 if lam == mu else 0)


def test_charge_examples():
    assert charge((1, 2)) == 1
    assert charge((2, 1)) == 0
    assert charge((1, 2, 3)) == 3
    assert charge((3, 1, 2)) == 2
    assert charge((2, 1, 3)) == 1
    assert charge((2, 3, 1, 1)) == 1


def test_green_polynomial_rank_two():
    for q in (2, 3, 5, 7):
        assert green((2,), (1, 1), q) == 1
        assert green((2,), (2,), q) == 1
        assert green((1, 1), (1, 1), q) == q + 1
        assert green((1, 1), (2,), q) == 1 - q


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
                        Fraction(green(mu, alpha, big_q) *
                                 green(mu, beta, big_q),
                                 Q.unipotent_centralizer_order(mu, big_q))
                        for mu in partitions_of(k))
                    expected = Fraction(z_order(alpha), t_alpha) if alpha == beta else 0
                    assert total == expected, (k, big_q, alpha, beta)


def test_value_on_unipotent_rank_two():
    for q in (2, 3, 4, 5):
        assert value_on_unipotent((2,), (2,), q) == 1
        assert value_on_unipotent((2,), (1, 1), q) == 1
        assert value_on_unipotent((1, 1), (2,), q) == 0
        assert value_on_unipotent((1, 1), (1, 1), q) == q


def test_value_on_unipotent_matches_torus_sum():
    # the expansion over torus types that value_on_unipotent replaced:
    # sum over rho of chi^nu(rho) Q^mu_rho(q) / z_rho, integral and equal
    for n in range(1, 8):
        for q in (2, 3, 4, 5):
            for nu in partitions_of(n):
                for mu in partitions_of(n):
                    total = sum((Fraction(sn_char(nu, rho) * green(mu, rho, q),
                                          z_order(rho)) for rho in partitions_of(n)),
                                Fraction(0))
                    assert total.denominator == 1, (nu, mu, q)
                    assert total == value_on_unipotent(nu, mu, q), (nu, mu, q)


def test_value_on_unipotent_matches_charge():
    # the factorisation against q^n(mu) K_{nu,mu}(1/q) from the charge oracle
    for n in range(0, 9):
        for nu in partitions_of(n):
            for mu in partitions_of(n):
                coeffs = kostka_foulkes(nu, mu)
                shift = n_stat(mu)
                assert len(coeffs) - 1 <= shift, (nu, mu)
                for q in (2, 3, 4, 5, 7, 8, 9):
                    expected = sum(c * q ** (shift - j) for j, c in enumerate(coeffs))
                    assert value_on_unipotent(nu, mu, q) == expected, (nu, mu, q)


def test_degrees_match_q_hook_formula():
    # K~_{nu,(1^n)}(q) against the oracle's own q-hook formula
    for n in range(0, 13):
        for q in (2, 3):
            for nu in partitions_of(n):
                assert unipotent_degree(nu, q) == BT.q_hook_degree(nu, q), (nu, q)


@pytest.mark.parametrize("wrong, message", [
    (lambda real, lam, t: real(lam, t) * t if lam == (2, 2) else real(lam, t),
     "not q^n(mu)"),
    (lambda real, lam, t: real(conjugate(lam), t), "not an integer"),
])
def test_unipotent_values_reject_wrong_centralizer_orders(monkeypatch, wrong, message):
    real = Q.unipotent_centralizer_order
    monkeypatch.setattr(C, "unipotent_centralizer_order",
                        lambda lam, t: wrong(real, lam, t))
    C._unipotent_values.cache_clear()
    with pytest.raises(AssertionError, match=re.escape(message)):
        C._unipotent_values(4, 3)


def test_trivial_label_value_is_one():
    for (n, q) in [(2, 3), (3, 2), (4, 3)]:
        for c in L.all_classes(n, q):
            assert C.class_values(L.type_of(c), q)[0] == 1  # (n,) comes first


def test_mn_step_single_hook_is_leg_sign():
    # peeling one companion block of a degree-D polynomial with k = 1
    out = dict(step((1, 1), 2, (1,), 3))
    assert out == {(): -1}
    out = dict(step((4,), 2, (1,), 3))
    assert out == {(2,): 1}
    out = dict(step((2, 1), 2, (1,), 5))
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
                    out = dict(step(nu, hook_degree, (1,) * k, 3))
                    reachable = l_set_iterate(nu, hook_degree, k)
                    assert set(out) <= set(reachable)
                    for lam in reachable:
                        assert out.get(lam, 0) != 0, (nu, hook_degree, k, lam)


def test_mn_step_can_vanish_for_non_semisimple_parts():
    # with a single Jordan block of size 2 the two torus terms cancel
    # exactly on some reachable targets; the values stay consistent (the
    # orthonormality suite pins them), so the map simply omits the target
    out = dict(step((3, 2), 2, (2,), 3))
    assert out == {}
    assert l_set_iterate((3, 2), 2, 2) == frozenset({(1,)})
    out = dict(step((2, 1, 1, 1), 1, (2, 1), 3))
    assert (2,) in l_set_iterate((2, 1, 1, 1), 1, 3)
    assert (2,) not in out and out[(1, 1)] == 3


def test_mn_step_rejects_a_non_integral_peel(monkeypatch):
    # a Green value off by one at alpha = (1^k) leaves the scaled sum
    # indivisible by k!
    real = C.green_values

    def wrong(k, big_q):
        # (1^k) is the last partition of k
        bump = 1 if k >= 2 else 0
        return tuple(row[:-1] + (row[-1] + bump,) for row in real(k, big_q))

    monkeypatch.setattr(C, "green_values", wrong)
    C.mn_step.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not integral"):
            C.mn_step(2, 1, (2,), 3)
    finally:
        C.mn_step.cache_clear()


def test_mn_step_targets_share_core():
    for nu in partitions_of(6):
        for out_lam, coef in step(nu, 2, (2,), 2):
            assert d_core(out_lam, 2) == d_core(nu, 2)


def test_alpha_coefficients_identity():
    x0 = L.type_of(L.make_label(0, 3, (), ()))
    for mu in partitions_of(4):
        assert compose_steps(mu, x0.components, 3) == {mu: 1}


def test_alpha_coefficients_of_a_d_part():
    x = L.type_of(L.make_label(2, 3, (), [((2, 0), (1,))]))
    assert compose_steps((3,), x.components, 3) == {(1,): 1}
    for lam in compose_steps((2, 2), x.components, 3):
        assert d_core(lam, 2) == d_core((2, 2), 2)


def test_alpha_paths_factors_nonzero():
    x = L.type_of(L.make_label(4, 3, (), [((2, 0), (1,)), ((2, 1), (1,))]))
    for mu in partitions_of(6):
        paths = peel_sequences(mu, x.components, 3)
        for chain, coef in paths:
            assert coef != 0
            assert len(chain) == 3
        agg = compose_steps(mu, x.components, 3)
        for lam, total in agg.items():
            assert total == sum(c for ch, c in paths if ch[-1] == lam)
            assert d_core(lam, 2) == d_core(mu, 2)


def test_vanishing_beyond_weight():
    from test_glclass import class_d_weight
    from glblocks.abacus import d_weight
    for (n, q, d) in [(4, 3, 2), (4, 2, 3), (5, 2, 2)]:
        for nu in partitions_of(n):
            w = d_weight(nu, d)
            for c in L.all_classes(n, q):
                if class_d_weight(L.type_of(c), d) > w:
                    assert nu not in vector(L.type_of(c), q)


def test_orthonormality_full_group():
    # includes sizes where some aggregated peel coefficients vanish, which
    # pins every value those coefficients feed
    for (n, q) in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3),
                   (5, 2), (5, 3), (6, 2), (8, 2)]:
        classes = L.all_classes(n, q)
        cents = [G.centralizer_order(L.type_of(c), q) for c in classes]
        vectors = [vector(L.type_of(c), q) for c in classes]
        for nu in partitions_of(n):
            for nu2 in partitions_of(n):
                total = sum(Fraction(v.get(nu, 0) * v.get(nu2, 0), z)
                            for v, z in zip(vectors, cents))
                assert total == (1 if nu == nu2 else 0), (n, q, nu, nu2)


def test_unipotent_degrees():
    for q in (2, 3):
        assert unipotent_degree((2,), q) == 1
        assert unipotent_degree((1, 1), q) == q
        assert unipotent_degree((2, 1), q) == q * (q + 1)
        assert unipotent_degree((1, 1, 1), q) == q ** 3
        for nu in partitions_of(4):
            assert value_on_unipotent(nu, (1, 1, 1, 1), q) > 0


def test_table_exports():
    data = json.loads("".join(CL.table_json(2, 3)))
    assert data["n"] == 2 and data["q"] == 3
    csv_text = "".join(CL.table_csv(2, 3))
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + 2  # header + one row per partition of 2
    assert lines[0].startswith("nu,")
    assert data["signs"] == {"[2]": 1, "[1, 1]": 1}
    # values at the identity are the degrees
    from test_glclass import identity_label
    ident = identity_label(2, 3).key()
    keys, types, _ = CL._table_parts(2, 3)
    assert keys == [c.key() for c in L.all_classes(2, 3)]
    assert vector(types[keys.index(ident)], 3) == {(1, 1): 3, (2,): 1}
    assert {nu: row[ident] for nu, row in data["values"].items()} == {"[2]": 1, "[1, 1]": 3}


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        green_polynomial((2,), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        value_on_unipotent((2, 1), (1, 1), 2)


@pytest.mark.parametrize("n, q", [(n, q) for n in range(6) for q in (2, 3, 4, 5)]
                         + [(6, 2), (6, 3)])
def test_class_values_match_label_fold(n, q):
    # every label's vector equals the per-label fold it replaced, entry for
    # entry in the order of partitions_of
    labels = partitions_of(n)
    for c in L.all_classes(n, q):
        expected = tuple(label_chi_value(nu, c) for nu in labels)
        assert C.class_values(L.type_of(c), q) == expected, c.key()


@pytest.mark.parametrize("n, q, d, variant", [
    (n, q, d, variant) for n, q, d in [(4, 3, 2), (5, 2, 2), (4, 2, 3), (6, 2, 3)]
    for variant in ("divisible", "exact")])
def test_peel_chain_matches_alpha_fold(n, q, d, variant):
    # peeling a head's components onto the vector of a d-regular y gives the
    # fold's alpha_x(mu, lam) applied to that vector, entry for entry
    for head in R.section_heads(n, q, d, variant):
        components = head.components
        alphas = {mu: compose_steps(mu, components, q) for mu in partitions_of(n)}
        for y in G.class_types(n - head.n, q):
            if not G.is_d_regular(y, d, variant):
                continue
            y_values = vector(y, q)
            chain, size = C.class_values(y, q), y.n
            for degree, jordan in reversed(components):
                size += degree * sum(jordan)
                chain = C.peel(chain, size, degree, jordan, q)
            expected = tuple(sum(a * y_values.get(lam, 0) for lam, a in alphas[mu].items())
                             for mu in partitions_of(n))
            assert chain == expected, (head, y)


@pytest.mark.parametrize("n, q", [(n, q) for n in range(9) for q in (2, 3, 4, 5)]
                         + [(10, 2), (9, 3)])
def test_row_factorisation_matches_the_entry_reference(n, q):
    # K~ and the Green values by rows against the per-entry generator sums
    # they replaced, every entry, zeros included
    labels = partitions_of(n)
    ref = unipotent_values(n, q)
    assert _unipotent_values(n, q) == tuple(tuple(ref.get((nu, mu), 0) for nu in labels)
                                            for mu in labels)
    assert C.green_values(n, q) == tuple(tuple(green_polynomial(mu, rho, q) for rho in labels)
                                         for mu in labels)
