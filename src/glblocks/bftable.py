"""Element-level oracle: the exact complex character table of a small
GL(n,q), its Borel constituents and the oracle dump, from the classes of
`bruteforce`.

The table is computed by the class-algebra eigenvector method with exact
cyclotomic lifting.  No floating point: the modular table is lifted to
integer vectors of root-of-unity multiplicities and verified against the
orthogonality relations exactly.  The class algebra is split one
restricted class matrix at a time; its eigenvalues are the roots mod the
chosen prime of its characteristic polynomial (from a Hessenberg form), so
a kernel is only computed at a root.  The Borel permutation character is
the character induced from the trivial character of the upper triangular
matrices.  `cmd_oracle` is the handler of the `oracle` command.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import cache
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from . import __version__
from .bruteforce import _primary_spaces, field, oracle_classes
from .errors import ScaleGuardError, TieError
from .partitions import conjugate, n_stat, partitions_of
from .qarith import prime_factors

CLASS_GUARD = 80   # the Dixon class constants number k^3; see bruteforce's guards


# -- exact cyclotomic arithmetic ---------------------------------------------------

def _int_poly_divmod(num, den):
    """(quotient, remainder) of integer polynomials, den monic; each step
    visits only the nonzero coefficients of den below its leading one, and
    the leading coefficient each step leaves in place is the quotient's."""
    num = list(num)
    dd = len(den) - 1
    terms = [(i, c) for i, c in enumerate(den[:-1]) if c]
    for top in range(len(num) - 1, dd - 1, -1):
        lead = num[top]
        if lead:
            for i, c in terms:
                num[top - dd + i] -= lead * c
    return num[dd:], num[:dd]


@cache
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num, rem = _int_poly_divmod(num, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError(f"cyclotomic polynomial {d} does not divide x^{e} - 1")
    return tuple(num)


def cyc_reduce(a):
    """Canonical remainder mod the e-th cyclotomic polynomial."""
    e = len(a)
    return tuple(_int_poly_divmod(a, cyclotomic_poly(e))[1] + [0] * e)[:e]


def cyc_as_int(a):
    """The rational integer a represents, or None."""
    red = cyc_reduce(a)
    if any(red[1:]):
        return None
    return red[0]


def _sparse(row):
    """Each value of a row as its nonzero (exponent, multiplicity) pairs."""
    return [[(j, m) for j, m in enumerate(value) if m] for value in row]


def _pairing(e, sizes, a, b):
    """sum_i |C_i| a_i conj(b_i) in Z[zeta_e] as a rational integer, or None;
    a_i and b_i are sparse values, conj(zeta^j) = zeta^-j."""
    acc = [0] * e
    for size, va, vb in zip(sizes, a, b):
        for ja, ma in va:
            for jb, mb in vb:
                acc[(ja - jb) % e] += size * ma * mb
    return cyc_as_int(acc)


# -- Dixon character table ----------------------------------------------------------

def _find_prime(e, order):
    bound = 2 * isqrt(order) + 1
    ell = e + 1
    while True:
        if ell > bound and prime_factors(ell) == (ell,) and order % ell != 0:
            return ell
        ell += e


def _primitive_root_power(ell, e):
    """g^((ell-1)/e) for the least primitive root g mod ell."""
    m = ell - 1
    for g in range(2, ell):
        if all(pow(g, m // p, ell) != 1 for p in prime_factors(m)):
            return pow(g, m // e, ell)
    raise AssertionError("no generator found")


def _rref_mod(rows, ell, n_cols):
    """(pivot columns, rows) of the reduced row echelon form mod ell, with
    pivots sought in the first n_cols columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % ell), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [(x * inv) % ell for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] % ell:
                coef = row[c] % ell
                rows[i] = [(x - coef * y) % ell for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots, rows


def _restrict_mod(M, basis, ell):
    """Matrix of M on an M-invariant subspace, in the given basis, mod ell:
    [basis | images] reduced, whose first m columns must have full rank."""
    m = len(basis)
    images = [[sum(map(mul, row, b)) % ell for row in M] for b in basis]
    aug = [[b[r] for b in basis] + [image[r] for image in images]
           for r in range(len(basis[0]))]
    pivots, rows = _rref_mod(aug, ell, m)
    if pivots != list(range(m)):
        raise ArithmeticError("basis vectors are dependent")
    if any(x % ell for row in rows[m:] for x in row[m:]):
        raise ArithmeticError("image escaped the subspace")
    return [row[m:] for row in rows[:m]]


def _kernel_mod(M, ell):
    """Basis of the kernel of M mod ell."""
    n = len(M)
    pivots, rows = _rref_mod(M, ell, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fc]) % ell
        basis.append(v)
    return basis


def _charpoly_mod(M, ell):
    """Coefficients c_0, ..., c_m (c_m = 1) of det(xI - M) mod ell.

    M is brought to upper Hessenberg form H by similarity (a row swap with
    the matching column swap, and eliminations below the subdiagonal with
    the inverse column operation); then the characteristic polynomial p_r
    of the leading r x r block of H follows from
    p_r = (x - h_rr) p_{r-1} - sum_{i<r} h_ir h_{i+1,i} ... h_{r,r-1} p_{i-1}."""
    m = len(M)
    H = [[x % ell for x in row] for row in M]
    for j in range(m - 2):
        piv = next((i for i in range(j + 1, m) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], -1, ell)
        for i in range(j + 2, m):
            if H[i][j]:
                f = H[i][j] * inv % ell
                H[i] = [(a - f * b) % ell for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % ell
    polys = [[1]]
    for r in range(m):
        p = [0] + polys[r]
        for t, c in enumerate(polys[r]):
            p[t] = (p[t] - H[r][r] * c) % ell
        sub = 1
        for i in range(r - 1, -1, -1):
            sub = sub * H[i + 1][i] % ell
            f = H[i][r] * sub % ell
            if f:
                for t, c in enumerate(polys[i]):
                    p[t] = (p[t] - f * c) % ell
        polys.append(p)
    return polys[m]


def _roots_mod(coeffs, ell):
    """The roots in [0, ell) of a polynomial mod ell, ascending."""
    roots = []
    for x in range(ell):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ell
        if acc == 0:
            roots.append(x)
    return roots


class CharacterTable(NamedTuple):
    order: int
    exponent: int
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    degrees: tuple[int, ...]
    values: tuple[tuple[tuple[int, ...], ...], ...]   # values[chi][class] cyclotomic

    def value_int(self, chi: int, cls: int):
        return cyc_as_int(self.values[chi][cls])


def _lift(chars_mod, degrees, power_class, e, ell, z):
    """Root-of-unity multiplicities of each character value, from its
    values mod ell on the powers of the class representative.

    m_j = (1/e) sum_{m<e} chi(r^m) z^(-jm) mod ell.  power_class[i] lists
    the classes of r^m for m below o = ord(r), and they repeat with period
    o, so the sum is (e/o) times the sum over m < o when (e/o) divides j.
    Otherwise it is that sum times sum_{t < e/o} z^(-jot), which is 0 mod
    ell because z^(-jo) is a root of unity other than 1."""
    e_inv = pow(e, -1, ell)
    z_pows = [pow(z, m, ell) for m in range(e)]
    # (e/o) z^(-jm) for m < o, one row per (order o, exponent j), shared by
    # every character
    root_rows = {}
    for powers in power_class:
        o = len(powers)
        stride = e // o
        for j in range(0, e, stride):
            if (o, j) not in root_rows:
                root_rows[o, j] = [stride * z_pows[(-j * m) % e] for m in range(o)]
    values = []
    for chi, cm in enumerate(chars_mod):
        rows = []
        for i, powers in enumerate(power_class):
            chi_powers = [cm[c] for c in powers]
            o = len(powers)
            mults = [0] * e
            for j in range(0, e, e // o):
                mj = sum(map(mul, chi_powers, root_rows[o, j])) * e_inv % ell
                if mj > degrees[chi]:
                    raise ArithmeticError("lifted multiplicity exceeds the degree")
                mults[j] = mj
            if sum(map(mul, mults, z_pows)) % ell != cm[i]:
                raise ArithmeticError("modular roundtrip failed")
            rows.append(tuple(mults))
        values.append(tuple(rows))
    return tuple(values)


@cache
def dixon_table(n: int, q: int) -> CharacterTable:
    """Exact complex character table of GL(n,q) for small groups."""
    data = oracle_classes(n, q)
    group = data.group
    k = len(data.reps)
    if k > CLASS_GUARD:
        raise ScaleGuardError(f"{k} classes over guard {CLASS_GUARD}")
    size = len(group.rows)
    reps = data.reps
    sizes = data.sizes
    inv_class = tuple(data.class_of[group.inverses[r]] for r in reps)
    # power_class[i][m] = class of reps[i]^m for m below the order of reps[i]
    power_class = []
    for r in reps:
        row = [data.class_of[group.id_index]]
        cur = r
        while cur != group.id_index:
            row.append(data.class_of[cur])
            cur = group.mul(cur, r)
        power_class.append(row)
    e = lcm(*(len(row) for row in power_class))
    ell = _find_prime(e, size)
    z = _primitive_root_power(ell, e)

    # class multiplication constants: A_i[j][k] = c_{ijk}
    # counted from one row [x^-1 z_k for every x] per representative z_k
    const = [[[0] * k for _ in range(k)] for _ in range(k)]
    class_of = data.class_of
    for kk in range(k):
        row = group.mul_pairs(group.inverses, [reps[kk]] * size)
        for i, j in zip(class_of, map(class_of.__getitem__, row)):
            const[i][j][kk] += 1
    mats = []
    for i in range(k):
        mats.append([[const[i][j][kk] % ell for kk in range(k)] for j in range(k)])

    # split the class algebra into common eigenlines one matrix at a time;
    # distinct characters have distinct eigenvalue vectors, so this always
    # terminates with k lines
    spaces = [[tuple(1 if r == c else 0 for c in range(k)) for r in range(k)]]
    for i in range(k):
        if all(len(sp) == 1 for sp in spaces):
            break
        nxt = []
        for sp in spaces:
            if len(sp) == 1:
                nxt.append(sp)
                continue
            m = len(sp)
            R = _restrict_mod(mats[i], sp, ell)
            # only a root of the characteristic polynomial has a kernel
            found = 0
            for x in _roots_mod(_charpoly_mod(R, ell), ell):
                shifted = [[(R[a][b] - (x if a == b else 0)) % ell
                            for b in range(m)] for a in range(m)]
                ker = _kernel_mod(shifted, ell)
                if not ker:
                    raise ArithmeticError("class algebra failed to split over the chosen prime")
                lifted = [tuple(sum(kv[j] * sp[j][c] for j in range(m)) % ell
                                for c in range(k)) for kv in ker]
                nxt.append(lifted)
                found += len(ker)
            if found != m:
                raise ArithmeticError("class algebra failed to split over the chosen prime")
        spaces = nxt
    if not (len(spaces) == k and all(len(sp) == 1 for sp in spaces)):
        raise ArithmeticError("eigenvector splitting did not reach lines")
    vectors = [list(sp[0]) for sp in spaces]

    id_cls = data.class_of[group.id_index]
    chars_mod = []
    degrees = []
    for v in vectors:
        if v[id_cls] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        norm = pow(v[id_cls], -1, ell)
        omega = [(x * norm) % ell for x in v]
        t = sum(omega[i] * omega[inv_class[i]] * pow(sizes[i], -1, ell)
                for i in range(k)) % ell
        target = size * pow(t, -1, ell) % ell
        deg = next((s for s in range(1, isqrt(size) + 1) if s * s % ell == target), None)
        if deg is None:
            raise ArithmeticError(f"no degree s <= isqrt(|G|) has s^2 = {target} mod {ell}")
        chars_mod.append([deg * omega[i] * pow(sizes[i], -1, ell) % ell for i in range(k)])
        degrees.append(deg)
    if sum(d * d for d in degrees) != size:
        raise ArithmeticError("squared degrees do not sum to |G|")

    values = _lift(chars_mod, degrees, power_class, e, ell, z)
    tab = CharacterTable(size, e, reps, sizes, inv_class, tuple(degrees), values)
    _verify_orthogonality(tab)
    return tab


def _verify_orthogonality(tab: CharacterTable):
    """sum_i |C_i| chi_a(C_i) conj(chi_b(C_i)) = |G| [a = b], exactly in Z[zeta_e]."""
    sparse = [_sparse(row) for row in tab.values]
    for a, row_a in enumerate(sparse):
        for b in range(a, len(sparse)):
            if _pairing(tab.exponent, tab.sizes, row_a, sparse[b]) != (tab.order if a == b else 0):
                raise ArithmeticError("row orthogonality failed exactly")


# -- the Borel permutation character and its constituents ------------------------------------

def q_hook_degree(lam, q: int) -> int:
    """Degree of the unipotent character lam by the q-hook formula,
    q^n(lam) prod_{i <= n} (q^i - 1) / prod over the hooks h of lam of (q^h - 1);
    written out here so the oracle does not read the engine's degrees."""
    n = sum(lam)
    lam_t = conjugate(lam)
    num = q ** n_stat(lam)
    for i in range(1, n + 1):
        num *= q ** i - 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            den *= q ** (row - j + lam_t[j] - i - 1) - 1
    degree, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"q-hook formula for {lam} at q = {q} is not an integer")
    return degree


class BorelDecomposition(NamedTuple):
    table: CharacterTable
    perm_values: tuple[int, ...]
    constituents: dict              # partition -> (char index, multiplicity)


@cache
def borel_unipotent_constituents(n: int, q: int) -> BorelDecomposition:
    """Decompose the Borel-coset permutation character; label by degree.

    The permutation character is induced from the trivial character of B,
    the upper triangular matrices (row i's code divisible by q^i): on the
    class of g it is |C(g)| |g^G intersect B| / |B|.  The unipotent constituents
    are matched to partition labels through their q-hook degrees; a tie
    between two degrees raises instead of guessing.
    """
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    in_borel = [0] * len(data.reps)
    for g, rows in enumerate(data.group.rows):
        if all(r % q ** i == 0 for i, r in enumerate(rows)):
            in_borel[data.class_of[g]] += 1
    borel_order = (q - 1) ** n * q ** (n * (n - 1) // 2)
    if sum(in_borel) != borel_order:
        raise ArithmeticError(f"{sum(in_borel)} upper triangular matrices, not |B| = {borel_order}")
    perm = tuple(c * m // borel_order for c, m in zip(data.centralizer_orders, in_borel))
    perm_values, mults = [[(0, x)] for x in perm], []
    for chi, row in enumerate(tab.values):
        val = _pairing(tab.exponent, tab.sizes, perm_values, _sparse(row))
        if val is None or val % tab.order:
            raise ArithmeticError(f"Borel multiplicity of character {chi} is not an integer")
        mults.append(val // tab.order)
    if sum(m * d for m, d in zip(mults, tab.degrees)) != perm[data.class_of[data.group.id_index]]:
        raise ArithmeticError("Borel constituents do not add up to the permutation degree")
    degree_to_label = {}
    for lam in partitions_of(n):
        deg = q_hook_degree(lam, q)
        if deg in degree_to_label:
            raise TieError(f"two unipotent labels share degree {deg}")
        degree_to_label[deg] = lam
    constituents = {}
    for chi, m in enumerate(mults):
        if m <= 0:
            continue
        deg = tab.degrees[chi]
        if deg not in degree_to_label:
            raise TieError(f"constituent of degree {deg} has no unipotent label")
        lam = degree_to_label[deg]
        if lam in constituents:
            raise AssertionError(f"two Borel constituents are labeled {lam}")
        constituents[lam] = (chi, m)
    if len(constituents) != len(partitions_of(n)):
        raise AssertionError(f"{len(constituents)} Borel constituents, not {len(partitions_of(n))}")
    return BorelDecomposition(tab, perm, constituents)


def check_d1_duality_identity(n: int, q: int) -> dict:
    """Exact scalar products with the trivial character over unipotents.

    Returns nonvanishing for every irreducible and, for the unipotent
    constituent labeled lam, equality with degree(conjugate(lam)) divided
    by the prime-to-p part of the group order.
    """
    from fractions import Fraction  # only this check builds a rational
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    dec = borel_unipotent_constituents(n, q)
    unip_classes = [i for i, r in enumerate(tab.reps)
                    if all(name == "u" for _, name, _, _ in _primary_spaces(n, q, r))]
    if sum(tab.sizes[i] for i in unip_classes) != q ** (n * (n - 1)):
        raise ArithmeticError("unipotent classes do not hold q^(n(n-1)) elements")
    order = tab.order
    p = field(q).p
    order_p = 1
    while order % p == 0:
        order //= p
        order_p *= p
    order_p_prime = tab.order // order_p
    # sum over unipotent classes of |C_i| conj(chi(C_i)), zero iff its conjugate is
    sizes = [tab.sizes[i] for i in unip_classes]
    ones = [[(0, 1)]] * len(unip_classes)
    all_nonzero = all(_pairing(tab.exponent, sizes, ones, _sparse([row[i] for i in unip_classes]))
                      != 0 for row in tab.values)
    exact_match = True
    for lam, (chi, _) in dec.constituents.items():
        total = 0
        for i in unip_classes:
            v = tab.value_int(chi, i)
            if v is None:
                raise ArithmeticError(f"character {chi} is not rational on unipotent class {i}")
            total += tab.sizes[i] * v
        lhs = Fraction(total, tab.order)
        rhs = Fraction(q_hook_degree(conjugate(lam), q), order_p_prime)
        if lhs != rhs:
            exact_match = False
    return {"all_nonzero": all_nonzero, "unipotent_identity": exact_match}


def oracle_dump(n: int, q: int) -> str:
    """JSON snapshot of classes, table and constituents for regression pinning."""
    data = oracle_classes(n, q)
    tab = dixon_table(n, q)
    dec = borel_unipotent_constituents(n, q)
    blob = {
        "n": n, "q": q, "order": tab.order,
        "classes": [
            {"label": label, "size": size, "centralizer": cent}
            for label, size, cent in zip(data.labels, data.sizes, data.centralizer_orders)
        ],
        "degrees": sorted(tab.degrees),
        "borel_permutation_values": list(dec.perm_values),
        "borel_constituents": {
            str(list(lam)): {"degree": tab.degrees[chi], "multiplicity": m}
            for lam, (chi, m) in dec.constituents.items()
        },
    }
    return json.dumps(blob, sort_keys=True)


def cached_oracle_dump(n: int, q: int) -> str:
    """Dump via the cache directory when GLBLOCKS_CACHE_DIR is set.

    Files are named by package version, so a dump written by another
    version is never served, and written whole to a temporary file that
    is then renamed into place, so a partial dump never appears.
    """
    cache_dir = os.environ.get("GLBLOCKS_CACHE_DIR")
    if not cache_dir:
        return oracle_dump(n, q)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"oracle_{__version__}_{n}_{q}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    blob = oracle_dump(n, q)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return blob


def cmd_oracle(args):
    blob = cached_oracle_dump(args.n, args.q)
    return 0, lambda: json.loads(blob), lambda: blob
