"""The Green factorisation entry by entry, the reference for `charvalue`'s row form.

`unipotent_values` solves A = K~ S K~^T one generator sum per entry over
the per-entry characters `hookref.sn_char`, and `green_polynomial` sums
chi^lam(rho) K~_{lam,mu}(q) one pair at a time; the tests compare the
engine's `_unipotent_values` and `green_values` with them entry for entry.
"""

from __future__ import annotations

from functools import cache

from glblocks.partitions import n_stat, partitions_of
from glblocks.qarith import gl_order, torus_order, unipotent_centralizer_order
from glblocks.symchar import z_order
from hookref import sn_char


@cache
def unipotent_values(n: int, q: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """{(nu, mu): K~_{nu,mu}(q)} over partitions nu, mu of n, zeros omitted."""
    def exact(num: int, den: int) -> int:
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"{num} / {den} is not an integer (n = {n}, q = {q})")
        return quo

    labels = partitions_of(n)[::-1]
    order = gl_order(n, q)
    weight = {rho: exact(order, z_order(rho) * torus_order(rho, q)) if rho else 1
              for rho in labels}
    size = {lam: exact(order, unipotent_centralizer_order(lam, q)) for lam in labels}
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for j, mu in enumerate(labels):
        diag = q ** n_stat(mu)
        for nu in labels[j:]:
            total = sum(w * sn_char(nu, rho) * sn_char(mu, rho) for rho, w in weight.items())
            total -= sum(out.get((nu, lam), 0) * out.get((mu, lam), 0) * size[lam]
                         for lam in labels[:j])
            value = exact(total, diag * size[mu])
            if nu == mu and value != diag:
                raise AssertionError(f"K~({mu}, {mu}) = {value}, not q^n(mu) = {diag}")
            if value:
                out[(nu, mu)] = value
    return out


@cache
def green_polynomial(mu: tuple[int, ...], rho: tuple[int, ...], q: int) -> int:
    """Green function value at the unipotent class mu for torus type rho."""
    if sum(mu) != sum(rho):
        raise ValueError("size mismatch between class and torus type")
    values = unipotent_values(sum(mu), q)
    return sum(sn_char(lam, rho) * values.get((lam, mu), 0) for lam in partitions_of(sum(mu)))
