"""Values of the signed unipotent class functions of GL(n,q) on every class.

The pipeline: Kostka-Foulkes polynomials (charge statistic over
semistandard tableaux) give the values on unipotent classes directly, as
the modified polynomials K~_{nu,mu}(q) = q^n(mu) K_{nu,mu}(1/q) (Green;
Macdonald ch. III.7 and IV).  Green polynomials are their transforms
under the symmetric group characters, and a hook-removal recursion
weighted by them peels every other primary component of a class.  All
values are exact integers at a concrete q; fractions only appear
transiently inside a peel and must cancel.

chi_value computes the class function that agrees with the unipotent
character up to a global sign; char_sign pins the sign by positivity of
the degree, and CharValueTable exposes both normalizations.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .glclass import GLClassLabel, all_classes
from .partitions import d_core, n_stat, partitions_of
from .symchar import signed_removal_map, sn_char, z_order


# -- Kostka-Foulkes ------------------------------------------------------------

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


@cache
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


@cache
def green_polynomial(mu: tuple[int, ...], rho: tuple[int, ...], q: int) -> int:
    """Green function value at the unipotent class mu for torus type rho.

    Transition through Kostka-Foulkes: sum over lam of the symmetric
    group character at rho times K~_{lam,mu}(q).  Satisfies the exact
    orthogonality sum_mu Q_a Q_b / |centralizer| = delta * z_a / |T_a|.
    """
    if sum(mu) != sum(rho):
        raise ValueError("size mismatch between class and torus type")
    if not mu:
        return 1
    return sum(sn_char(lam, rho) * value_on_unipotent(lam, mu, q)
               for lam in partitions_of(sum(mu)) if dominates(lam, mu))


# -- unipotent base values and the peeling recursion ---------------------------

@cache
def value_on_unipotent(nu: tuple[int, ...], mu: tuple[int, ...], q: int) -> int:
    """Signed unipotent class function labeled nu at the unipotent class mu.

    This is the modified Kostka-Foulkes value K~_{nu,mu}(q) =
    q^n(mu) K_{nu,mu}(1/q), an integer.
    """
    if sum(nu) != sum(mu):
        raise ValueError("size mismatch")
    coeffs = kostka_foulkes(nu, mu)
    shift = n_stat(mu)
    if len(coeffs) - 1 > shift:
        raise AssertionError(f"K({nu}, {mu}) has degree above n(mu) = {shift}")
    return sum(c * q ** (shift - j) for j, c in enumerate(coeffs))


@cache
def mn_step(nu: tuple[int, ...], hook_degree: int, jordan: tuple[int, ...],
            q: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Coefficient map for peeling one primary component.

    The component is a class (f -> jordan) with deg f = hook_degree, so
    k = |jordan| hooks of length hook_degree leave nu.  For each target
    lam the coefficient is

        sum over alpha |- k of Q^jordan_alpha(q^deg) / z_alpha
                              * (signed removal sum for scaled alpha),

    an exact integer.  Targets not reachable never appear; an empty map
    means the value downstream is 0.
    """
    k = sum(jordan)
    big_q = q ** hook_degree
    acc: dict[tuple[int, ...], Fraction] = {}
    for alpha in partitions_of(k):
        green = green_polynomial(jordan, alpha, big_q)
        if green == 0:
            continue
        weight = Fraction(green, z_order(alpha))
        for lam, s in signed_removal_map(nu, alpha, hook_degree).items():
            acc[lam] = acc.get(lam, Fraction(0)) + weight * s
    out = []
    for lam in sorted(acc, reverse=True):
        val = acc[lam]
        if val.denominator != 1:
            raise AssertionError(f"hook-removal coefficient {val} not integral")
        if val != 0:
            out.append((lam, int(val)))
    return tuple(out)


def compose_steps(start: tuple[int, ...], components, q: int):
    """Fold mn_step over (degree, jordan) components; map target -> int."""
    state = {start: 1}
    for degree, jordan in components:
        nxt: dict[tuple[int, ...], int] = {}
        for part, coef in state.items():
            for lam, a in mn_step(part, degree, jordan, q):
                nxt[lam] = nxt.get(lam, 0) + coef * a
        state = {p: c for p, c in nxt.items() if c != 0}
        if not state:
            return {}
    return state


def peel_sequences(start: tuple[int, ...], components, q: int):
    """Per-sequence coefficients: list of (intermediate partitions, product).

    One entry per chain of intermediate partitions through the peels;
    every single-step factor is nonzero by construction.
    """
    seqs = [((start,), 1)]
    for degree, jordan in components:
        nxt = []
        for chain, coef in seqs:
            for lam, a in mn_step(chain[-1], degree, jordan, q):
                nxt.append((chain + (lam,), coef * a))
        seqs = nxt
    return seqs


def _components_of(c: GLClassLabel):
    """Non-unipotent primary components as (degree, jordan), canonical order."""
    return tuple((key.degree, part) for key, part in sorted(c.support))


@cache
def chi_value(nu: tuple[int, ...], c: GLClassLabel) -> int:
    """Value of the signed unipotent class function nu at the class c."""
    if sum(nu) != c.n:
        raise ValueError("label size differs from the class's n")
    state = compose_steps(nu, _components_of(c), c.q)
    total = 0
    for lam, coef in state.items():
        if sum(lam) != sum(c.unipotent):
            raise AssertionError("peeling left the wrong size")
        total += coef * value_on_unipotent(lam, c.unipotent, c.q)
    return total


class MNCoefficient(NamedTuple):
    source: tuple[int, ...]
    target: tuple[int, ...]
    x_type: tuple[tuple[int, int], ...]
    value: int


def alpha_coefficients(mu: tuple[int, ...], x_part: GLClassLabel, q: int):
    """Aggregated peel coefficients for a d-element part; {target: int}.

    Composes the hook-removal rule over the primary components of x_part
    in canonical support order.  The identity (empty) part gives {mu: 1}.
    Nonzero targets share mu's d-core for the ambient d.
    """
    return compose_steps(mu, _components_of(x_part), q)


def mn_coefficient_records(mu, x_part: GLClassLabel, q: int, d: int):
    """Typed records for the aggregated coefficients of one d-element part."""
    from .glclass import d_type
    x_type = d_type(x_part, d)
    out = []
    for lam, value in sorted(alpha_coefficients(tuple(mu), x_part, q).items(),
                             reverse=True):
        rec = MNCoefficient(tuple(mu), lam, x_type, value)
        assert value == 0 or d_core(lam, d) == d_core(rec.source, d)
        out.append(rec)
    return tuple(out)


def alpha_paths(mu: tuple[int, ...], x_part: GLClassLabel, q: int):
    return peel_sequences(mu, _components_of(x_part), q)


@cache
def char_sign(nu: tuple[int, ...], q: int) -> int:
    """Sign making the value at the identity (the degree) positive."""
    if not nu:
        return 1
    deg = value_on_unipotent(nu, (1,) * sum(nu), q)
    assert deg != 0
    return 1 if deg > 0 else -1


def unipotent_degree(nu: tuple[int, ...], q: int) -> int:
    return abs(value_on_unipotent(nu, (1,) * sum(nu), q)) if nu else 1


# -- assembled tables ----------------------------------------------------------

class CharValueTable:
    """All signed unipotent class function values for one GL(n,q)."""

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q
        self.classes = all_classes(n, q)
        self.labels = partitions_of(n)
        self.values = {(nu, c): chi_value(nu, c)
                       for nu in self.labels for c in self.classes}
        self.signs = {nu: char_sign(nu, q) for nu in self.labels}

    def chi(self, nu, c) -> int:
        return self.values[(tuple(nu), c)]

    def chi_character(self, nu, c) -> int:
        """Value of the actual unipotent character (sign corrected)."""
        nu = tuple(nu)
        return self.signs[nu] * self.values[(nu, c)]

    def to_json(self) -> str:
        data = {
            "n": self.n,
            "q": self.q,
            "signs": {str(list(nu)): s for nu, s in self.signs.items()},
            "values": {
                str(list(nu)): {c.key(): self.values[(nu, c)] for c in self.classes}
                for nu in self.labels
            },
        }
        return json.dumps(data, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["nu"] + [c.key() for c in self.classes])
        for nu in self.labels:
            writer.writerow([str(list(nu))] +
                            [self.values[(nu, c)] for c in self.classes])
        return buf.getvalue()


@cache
def table(n: int, q: int) -> CharValueTable:
    return CharValueTable(n, q)
