"""Element-level oracle: the exact complex character table of a small
GL(n,q), its Borel constituents and the oracle dump, from the classes of
`bruteforce`.

The table is computed by the class-algebra eigenvector method mod a prime
ell = 1 mod e, e the exponent of the group: the class algebra is split one
restricted class matrix at a time, with a kernel only at each root mod ell
of its characteristic polynomial (from a Hessenberg form).  Each value is
kept as its image in Z/M under one ring map zeta_e -> w that `_embedding`
proves injective on what the oracle tests, found through root-of-unity
multiplicities that are checked and dropped; every exact test on values
(orthogonality, Borel multiplicities, nonvanishing, rationality) runs in
Z/M: no floating point and no cyclotomic division.  `cmd_oracle` is the
handler of the `oracle` command; it computes every dump afresh, and
reads and writes no file.
"""

from __future__ import annotations

import json
from functools import cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from .bruteforce import _primary_spaces, oracle_classes
from .errors import ScaleGuardError, TieError
from .partitions import conjugate, n_stat, partitions_of
from .qarith import prime_factors

CLASS_GUARD = 80   # the Dixon class constants number k^3; see bruteforce's guards


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
    modulus: int                            # M of `_embedding`
    root: int                               # w, the image of zeta_e in Z/M
    residues: tuple[tuple[int, ...], ...]   # [chi][class]: the value's image in Z/M

    def value_int(self, chi: int, cls: int):
        return _integer(self.residues[chi][cls], self.modulus, self.degrees[chi])


def _integer(residue, modulus, bound):
    """The integer x with |x| <= bound that maps to `residue`, or None.  A
    quantity with conjugates at most the embedding's bound less `bound` is x,
    or no integer if None: it less x maps to 0 and is within the bound."""
    x = (residue + modulus // 2) % modulus - modulus // 2
    return x if abs(x) <= bound else None


def _embedding(e, ell, z, bound):
    """(M, w): M = ell^k, the least power of ell above bound^phi(e), and w
    the Teichmueller lift z^(ell^(k-1)) mod M of z, the root of x^e = 1 mod M
    that is z mod ell, found by Newton's step x -> x (1 - (x^e - 1)/e), which
    squares the precision at which x^e = 1.  zeta_e -> w maps Z[zeta_e] onto
    Z/M and sends no nonzero x with |sigma(x)| <= bound for every embedding
    sigma to 0.

    w^e = 1 mod M, and w mod ell has order e; both are checked.  As ell does
    not divide e, x^e - 1 has no repeated root mod ell, so Phi_d(w) is a unit
    mod M for each proper divisor d of e, and Phi_e(w) = 0 mod M: the map is
    well defined.  It is onto, so its kernel has index M, and a nonzero x in
    it generates an ideal inside it, so |N(x)| = [Z[zeta_e] : (x)] >= M.  But
    |N(x)| = prod_sigma |sigma(x)| <= bound^phi(e) < M."""
    limit, modulus = bound ** sum(gcd(j, e) == 1 for j in range(e)), ell
    while modulus <= limit:
        modulus *= ell
    w, precision = z, ell
    while precision < modulus:
        precision = min(precision * precision, modulus)
        w = w * (1 - (pow(w, e, precision) - 1) * pow(e, -1, precision)) % precision
    if pow(w, e, modulus) != 1:
        raise ArithmeticError("the lifted root is not an e-th root of unity mod M")
    if any(pow(w, e // p, ell) == 1 for p in prime_factors(e)):
        raise ArithmeticError("the lifted root is not a primitive e-th root of unity mod ell")
    return modulus, w


def _lift(chars_mod, degrees, power_class, e, ell, z, modulus, w):
    """The image in Z/modulus under zeta_e -> w of each character value,
    [chi][class], through its root-of-unity multiplicities, found from its
    values mod ell on the powers of the class representative.

    m_j = (1/e) sum_{m<e} chi(r^m) z^(-jm) mod ell.  power_class[i] lists
    the classes of r^m for m below o = ord(r), and they repeat with period
    o, so the sum is (e/o) times the sum over m < o when (e/o) divides j.
    Otherwise it is that sum times sum_{t < e/o} z^(-jot), which is 0 mod
    ell because z^(-jo) is a root of unity other than 1.  The multiplicities
    count the eigenvalues of r, so they must sum to chi(1); then every
    conjugate of chi(r) is at most chi(1) in absolute value."""
    z_pows = [pow(z, m, ell) for m in range(e)]
    # per order o: the rows (1/o) z^(-jm), m < o, for each j that e/o
    # divides, shared by every character, and the powers of w at those j
    lifts = {}
    for powers in power_class:
        o = len(powers)
        if o not in lifts:
            o_inv, stride = pow(o, -1, ell), e // o
            w_row, step = [1], pow(w, stride, modulus)
            while len(w_row) < o:
                w_row.append(w_row[-1] * step % modulus)
            lifts[o] = ([[o_inv * z_pows[(-j * m) % e] % ell for m in range(o)]
                         for j in range(0, e, stride)], w_row)
    residues = []
    for chi, cm in enumerate(chars_mod):
        images = []
        for i, powers in enumerate(power_class):
            chi_powers = [cm[c] for c in powers]
            roots, w_row = lifts[len(powers)]
            mults = [sum(map(mul, chi_powers, row)) % ell for row in roots]
            if sum(mults) != degrees[chi]:
                raise ArithmeticError("multiplicities do not sum to the degree")
            image = sum(map(mul, mults, w_row)) % modulus
            if image % ell != cm[i]:
                raise ArithmeticError("modular roundtrip failed")
            images.append(image)
        residues.append(tuple(images))
    return tuple(residues)


def _borel_order(n, q):
    """|B| for B the upper triangular matrices of GL(n,q)."""
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


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
    class_of = data.class_of
    inv_class = tuple(class_of[group.inverses[r]] for r in reps)
    # power_class[i][m] = class of reps[i]^m for m below the order of reps[i]
    power_class = []
    for r in reps:
        row = [class_of[group.id_index]]
        cur = r
        while cur != group.id_index:
            row.append(class_of[cur])
            cur = group.mul(cur, r)
        power_class.append(row)
    # the powers of g^-1 are those of g reversed: the lift there is conj(chi(g))
    for row, inv in zip(power_class, inv_class):
        if power_class[inv] != row[:1] + row[:0:-1]:
            raise ArithmeticError("the powers of an inverse class are not reversed")
    e = lcm(*(len(row) for row in power_class))
    ell = _find_prime(e, size)
    z = _primitive_root_power(ell, e)

    # class multiplication constants: mats[i][j][kk] = c_ijk, counted from
    # one row [x^-1 z_kk for every x] per representative z_kk
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for kk in range(k):
        row = group.mul_pairs(group.inverses, [reps[kk]] * size)
        for i, j in zip(class_of, map(class_of.__getitem__, row)):
            mats[i][j][kk] += 1

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
            columns = list(zip(*sp))
            # only a root of the characteristic polynomial has a kernel
            found = 0
            for x in _roots_mod(_charpoly_mod(R, ell), ell):
                shifted = [[(R[a][b] - (x if a == b else 0)) % ell
                            for b in range(m)] for a in range(m)]
                ker = _kernel_mod(shifted, ell)
                if not ker:
                    raise ArithmeticError("class algebra failed to split over the chosen prime")
                nxt.append([tuple(sum(map(mul, kv, col)) % ell for col in columns)
                            for kv in ker])
                found += len(ker)
            if found != m:
                raise ArithmeticError("class algebra failed to split over the chosen prime")
        spaces = nxt
    if not (len(spaces) == k and all(len(sp) == 1 for sp in spaces)):
        raise ArithmeticError("eigenvector splitting did not reach lines")

    id_cls = class_of[group.id_index]
    size_inv = [pow(s, -1, ell) for s in sizes]
    chars_mod = []
    degrees = []
    for (v,) in spaces:
        if v[id_cls] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        norm = pow(v[id_cls], -1, ell)
        omega = [(x * norm) % ell for x in v]
        t = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % ell
        target = size * pow(t, -1, ell) % ell
        deg = next((s for s in range(1, isqrt(size) + 1) if s * s % ell == target), None)
        if deg is None:
            raise ArithmeticError(f"no degree s <= isqrt(|G|) has s^2 = {target} mod {ell}")
        chars_mod.append([deg * x * s_inv % ell for x, s_inv in zip(omega, size_inv)])
        degrees.append(deg)
    if sum(d * d for d in degrees) != size:
        raise ArithmeticError("squared degrees do not sum to |G|")

    # every quantity tested exactly, less the integer it is read as, has
    # conjugates within this bound: the values within D, the orthogonality
    # sums within |G|(D^2 + 1), the Borel sums within |G| D [G:B]
    top = max(degrees)
    modulus, w = _embedding(e, ell, z, 2 * size * (top * max(top, size // _borel_order(n, q)) + 1))
    residues = _lift(chars_mod, degrees, power_class, e, ell, z, modulus, w)
    tab = CharacterTable(size, e, reps, sizes, inv_class, tuple(degrees), modulus, w, residues)
    _verify_orthogonality(tab)
    return tab


def _verify_orthogonality(tab: CharacterTable):
    """sum_i |C_i| chi_a(C_i) conj(chi_b(C_i)) = |G| [a = b], exactly: the
    difference of the two sides has every conjugate within |G|(D^2 + 1), so
    it is 0 exactly when its image in Z/M is.  conj(chi_b(C_i)) is chi_b at
    the inverse class."""
    modulus = tab.modulus
    conj = [[row[i] for i in tab.inverse_class] for row in tab.residues]
    for a, row in enumerate(tab.residues):
        sized = [s * x % modulus for s, x in zip(tab.sizes, row)]
        for b in range(a, len(conj)):
            if sum(map(mul, sized, conj[b])) % modulus != (tab.order if a == b else 0):
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
    borel_order = _borel_order(n, q)
    if sum(in_borel) != borel_order:
        raise ArithmeticError(f"{sum(in_borel)} upper triangular matrices, not |B| = {borel_order}")
    perm = tuple(c * m // borel_order for c, m in zip(data.centralizer_orders, in_borel))
    # |G| times chi's multiplicity, conjugated (perm is rational), has every
    # conjugate within D sum_i |C_i| perm_i = D |G| (orbits on G/B) <= |G| D [G:B]
    weights = [s * x for s, x in zip(tab.sizes, perm)]
    bound = tab.order * max(tab.degrees) * (tab.order // borel_order)
    mults = []
    for chi, row in enumerate(tab.residues):
        val = _integer(sum(map(mul, weights, row)), tab.modulus, bound)
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
    tab = dixon_table(n, q)
    dec = borel_unipotent_constituents(n, q)
    unip_classes = [i for i, r in enumerate(tab.reps)
                    if all(name == "u" for _, name, _, _ in _primary_spaces(n, q, r))]
    if sum(tab.sizes[i] for i in unip_classes) != q ** (n * (n - 1)):
        raise ArithmeticError("unipotent classes do not hold q^(n(n-1)) elements")
    order_p_prime = tab.order // q ** (n * (n - 1) // 2)   # |G| over its p-part
    # sum over unipotent classes of |C_i| chi(C_i), with every conjugate
    # within |G| D, so zero exactly when its image in Z/M is
    sizes = [tab.sizes[i] for i in unip_classes]
    all_nonzero = all(sum(map(mul, sizes, map(row.__getitem__, unip_classes))) % tab.modulus
                      for row in tab.residues)
    exact_match = True
    for lam, (chi, _) in dec.constituents.items():
        total = 0
        for i in unip_classes:
            v = tab.value_int(chi, i)
            if v is None:
                raise ArithmeticError(f"character {chi} is not rational on unipotent class {i}")
            total += tab.sizes[i] * v
        # total / |G| against degree(lam') / |G|_p', cross-multiplied
        if total * order_p_prime != q_hook_degree(conjugate(lam), q) * tab.order:
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


def cmd_oracle(args):
    blob = oracle_dump(args.n, args.q)
    return 0, lambda: blob, lambda: blob
