"""Paper statements that no command runs, kept as references for the tests.

`sn_l_blocks` is the symmetric-group side of generalized blocks
(Kuelshammer-Olsson-Robinson, Invent. Math. 151, 2003): characters of S_n
linked across the ell-regular classes, which the tests compare with the
same-core grouping.  `weight_one_singular_value` is the closed form of a
d-singular product of two weight-1 characters, which the tests compare
with the engine's inner products.
"""

from __future__ import annotations

from fractions import Fraction

from glblocks.blockcalc import Context
from glblocks.errors import HypothesisError
from glblocks.abacus import d_weight
from glblocks.partitions import d_core, partitions_of
from glblocks.symchar import linked_components, z_order
from glblocks.verify import epsilon
from hookref import sn_char


def regular_classes(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """Cycle types with no part divisible by ell."""
    return tuple(rho for rho in partitions_of(n) if not any(p % ell == 0 for p in rho))


def restricted_inner_product(lam, mu, classes) -> Fraction:
    """Scalar product of two S_n characters restricted to the given classes."""
    return sum((Fraction(sn_char(lam, rho) * sn_char(mu, rho), z_order(rho))
                for rho in classes), Fraction(0))


def sn_l_blocks(n: int, ell: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Blocks of S_n characters under linking across ell-regular classes.

    Characters are directly linked when their scalar product over classes
    with no cycle length divisible by ell is nonzero; blocks are the
    transitive closure, returned as frozensets of partition labels.
    """
    if n < 1 or ell < 2:
        raise ValueError(f"need n >= 1 and ell >= 2, got n = {n}, ell = {ell}")
    labels = partitions_of(n)
    classes = regular_classes(n, ell)
    return linked_components(labels, (
        (lam, mu) for i, lam in enumerate(labels) for mu in labels[i + 1:]
        if restricted_inner_product(lam, mu, classes) != 0))


def weight_one_singular_value(lam, mu, ctx: Context) -> Fraction:
    """d-singular inner product F/(q^d-1) * eps_lam * eps_mu for distinct
    weight-1 partitions with the same d-core (no simplicity needed)."""
    lam, mu = tuple(lam), tuple(mu)
    d = ctx.d
    if lam == mu:
        raise HypothesisError("partitions must be distinct")
    if d_core(lam, d) != d_core(mu, d):
        raise HypothesisError("distinct d-cores")
    if d_weight(lam, d) != 1 or d_weight(mu, d) != 1:
        raise HypothesisError("weights must both be 1")
    return Fraction(ctx.f_number * epsilon(lam, d) * epsilon(mu, d),
                    ctx.q ** d - 1)
