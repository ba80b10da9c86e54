"""Element-level oracle: the exact complex character table of a small
GL(n,q), its Borel constituents and the oracle dump, from the classes of
`bruteforce`.

The table is computed by the class-algebra eigenvector method mod a prime
ell = 1 mod e, e the exponent of the group (Dixon 1967, Schneider 1990).
The class algebra is split first into the eigenspaces of the class sum of
a generator of the centre, read off the cycles in which it permutes the
classes, with no elimination; then one class matrix at a time, each built
from the elements of its class when the split first reads it, and one per
cycle of the centre.  A matrix that acts on a space as one scalar keeps
it whole; on any other space the split takes a kernel only at each root
mod ell of the characteristic polynomial of the restricted matrix (from a
Hessenberg form).  Each value is kept as its image in Z/M under one ring
map zeta_e -> w that `_embedding` proves injective on what the oracle
tests, found through root-of-unity multiplicities that are checked and
dropped, once per orbit of the power maps; every exact test on values
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

# k classes: each class matrix the split reads holds k^2 constants, and the
# orthogonality check takes k^3/2 products in Z/M; see bruteforce's guards
CLASS_GUARD = 80


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
    """The roots in [0, ell) of a polynomial mod ell, ascending: Horner's
    rule at every x at once, one list per coefficient."""
    xs = range(ell)
    acc = [0] * ell
    for c in reversed(coeffs):
        acc = [(a * x + c) % ell for a, x in zip(acc, xs)]
    return [x for x in xs if not acc[x]]


def _scalar_on(M, basis, ell):
    """lam if M b = lam b mod ell for every b in the basis, else None: M
    then keeps the span of the basis and acts on it as one scalar."""
    lam = None
    for b in basis:
        image = [sum(map(mul, row, b)) % ell for row in M]
        if lam is None:
            j = next(j for j, x in enumerate(b) if x)
            lam = image[j] * pow(b[j], -1, ell) % ell
        if image != [lam * x % ell for x in b]:
            return None
    return lam


def _class_matrix(group, i, reps, class_of):
    """M[j][kk] = c_ijk = #{x in C_i : x^-1 z_kk in C_j}, z_kk the
    representative of class kk: K_i K_j = sum_kk c_ijk K_kk, from one
    product per element of C_i and class, taken for as many classes at
    once as keep the list of products within |G|."""
    k = len(reps)
    inverses = [group.inverses[x] for x, c in enumerate(class_of) if c == i]
    M = [[0] * k for _ in range(k)]
    step = max(1, len(class_of) // len(inverses))
    for start in range(0, k, step):
        chunk = reps[start:start + step]
        products = group.mul_pairs(inverses * len(chunk), [z for z in chunk for _ in inverses])
        for t, g in enumerate(products):
            M[class_of[g]][start + t // len(inverses)] += 1
    return M


def _power_classes(group, class_of, reps):
    """[i][m] = the class of reps[i]^m for m below the order of reps[i]."""
    power_class = []
    for r in reps:
        row = [class_of[group.id_index]]
        cur = r
        while cur != group.id_index:
            row.append(class_of[cur])
            cur = group.mul(cur, r)
        power_class.append(row)
    return power_class


def _centre_permutation(group, reps, class_of, centre):
    """sigma[kk] = the class of centre^-1 z_kk, z_kk the representative of
    class kk: for central `centre`, K_centre K_j = K_kk exactly when
    sigma[kk] = j."""
    return [class_of[x] for x in group.mul_pairs([group.inverses[centre]] * len(reps), reps)]


def _cycles(sigma):
    """The cycles kk, sigma(kk), ... of a permutation, each from its least
    element, in ascending order of it."""
    cycles = []
    for kk in range(len(sigma)):
        if all(kk not in cycle for cycle in cycles):
            cycles.append([kk])
            while sigma[cycles[-1][-1]] != kk:
                cycles[-1].append(sigma[cycles[-1][-1]])
    return cycles


def _split(M, spaces, i, ell):
    """Each (basis, history) of `spaces`, M-invariant, split by M, the
    matrix of class i: kept whole, with (i, lam) in its history, where M
    acts on it as one scalar lam, else into the kernels of M - x at each
    root x mod ell of the characteristic polynomial of M restricted to it,
    each with (i, x)."""
    nxt = []
    for basis, history in spaces:
        if len(basis) == 1:
            nxt.append((basis, history))
            continue
        lam = _scalar_on(M, basis, ell)
        if lam is not None:
            nxt.append((basis, history + ((i, lam),)))
            continue
        m = len(basis)
        R = _restrict_mod(M, basis, ell)
        columns = list(zip(*basis))
        # only a root of the characteristic polynomial has a kernel
        found = 0
        for x in _roots_mod(_charpoly_mod(R, ell), ell):
            shifted = [[(R[a][b] - (x if a == b else 0)) % ell
                        for b in range(m)] for a in range(m)]
            ker = _kernel_mod(shifted, ell)
            if not ker:
                raise ArithmeticError("class algebra failed to split over the chosen prime")
            nxt.append(([tuple(sum(map(mul, kv, col)) % ell for col in columns)
                         for kv in ker], history + ((i, x),)))
            found += len(ker)
        if found != m:
            raise ArithmeticError("class algebra failed to split over the chosen prime")
    return nxt


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
    conjugate of chi(r) is at most chi(1) in absolute value.

    The sum runs once per orbit of the power maps: for a prime to o, the
    class of r^a has the power classes of r at a*m, which is checked, and
    the eigenvalues of r raised to the a, so its multiplicity at the (t a)-th
    power of a primitive o-th root of unity is that of r at the t-th.  At
    most chi(1) multiplicities are nonzero, and only those meet the powers
    of w."""
    z_pows = [pow(z, m, ell) for m in range(e)]
    # per order o: the rows (1/o) z^(-jm), m < o, for each j that e/o
    # divides, shared by every character, packed by column m into one
    # integer, the t-th row's entry shifted by `shift` t bits, so that one
    # sum of products gives every multiplicity of a value at once; and the
    # powers of w at those j
    shift = (e * ell * ell).bit_length()
    lifts = {}
    for powers in power_class:
        o = len(powers)
        if o not in lifts:
            o_inv, stride = pow(o, -1, ell), e // o
            w_row, step = [1], pow(w, stride, modulus)
            while len(w_row) < o:
                w_row.append(w_row[-1] * step % modulus)
            lifts[o] = ([sum(o_inv * z_pows[(-j * m) % e] % ell << shift * t
                             for t, j in enumerate(range(0, e, stride))) for m in range(o)], w_row)
    residues = [[0] * len(power_class) for _ in chars_mod]
    done = set()
    for i, powers in enumerate(power_class):
        if i in done:
            continue
        # the classes c of r^a, a prime to o, each with a: the multiplicity
        # of r at the t-th root is that of c at the (t a)-th
        o = len(powers)
        orbit = {powers[a]: a for a in range(o - 1, 1, -1) if gcd(a, o) == 1}
        orbit[i] = 1
        done.update(orbit)
        if any(power_class[c] != [powers[a * m % o] for m in range(o)] for c, a in orbit.items()):
            raise ArithmeticError("the powers of a power class are not the powers at a*m")
        columns, w_row = lifts[o]
        for chi, cm in enumerate(chars_mod):
            packed = sum(map(mul, map(cm.__getitem__, powers), columns))
            mults = [(packed >> shift * t) % (1 << shift) % ell for t in range(o)]
            # every class of the orbit has these multiplicities, permuted
            if sum(mults) != degrees[chi]:
                raise ArithmeticError("multiplicities do not sum to the degree")
            nonzero = [(t, m) for t, m in enumerate(mults) if m]
            for c, a in orbit.items():
                image = sum(m * w_row[t * a % o] for t, m in nonzero) % modulus
                if image % ell != cm[c]:
                    raise ArithmeticError("modular roundtrip failed")
                residues[chi][c] = image
    return tuple(map(tuple, residues))


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
    power_class = _power_classes(group, class_of, reps)
    # the powers of g^-1 are those of g reversed: the lift there is conj(chi(g))
    for row, inv in zip(power_class, inv_class):
        if power_class[inv] != row[:1] + row[:0:-1]:
            raise ArithmeticError("the powers of an inverse class are not reversed")
    e = lcm(*(len(row) for row in power_class))
    ell = _find_prime(e, size)
    z = _primitive_root_power(ell, e)

    # the centre, the scalars, is cyclic of order q - 1, each element a
    # class of its own: a class of size 1 and order q - 1 generates it.
    # Its class sum permutes the classes by sigma, and its matrix, built
    # from its element, must be the permutation matrix of sigma
    central = [i for i, s in enumerate(sizes) if s == 1]
    centre = next((i for i in central if len(power_class[i]) == q - 1), None)
    if len(central) != q - 1 or centre is None:
        raise ArithmeticError("the centre is not cyclic with q - 1 classes")
    sigma = _centre_permutation(group, reps, class_of, reps[centre])
    if _class_matrix(group, centre, reps, class_of) != [[int(s == j) for s in sigma]
                                                        for j in range(k)]:
        raise ArithmeticError("the centre's class matrix is not a permutation of the classes")

    # The eigenspace of that matrix at lam = root^t, one per central
    # character, has a basis of one vector per cycle c of sigma of length s
    # with lam^s = 1: lam^-u at sigma^u(c), 0 off c.  On it the class sum
    # of sigma^-1(i) is lam times that of i, so only the first class of
    # each cycle is read, and none of the centre's cycle, the identity's.
    # The matrix of class i acts there as R, R[a][b] the value of its
    # product with the b-th vector at the least class of cycle a, where the
    # a-th vector alone is nonzero.  Each eigenspace is split in those
    # coordinates into common eigenlines, one class matrix at a time, each
    # built when first read; distinct characters have distinct eigenvalue
    # vectors, so this always terminates with lines.  Each line carries
    # the eigenvalues (class, lam) the split gave it
    cycles = _cycles(sigma)
    leaders = [cycle[0] for cycle in cycles if centre not in cycle]
    root, mats, lines = pow(z, e // (q - 1), ell), {}, []
    for t in range(q - 1):
        lam_inv = [pow(root, -t * u % (q - 1), ell) for u in range(q - 1)]
        on = [cycle for cycle in cycles if t * len(cycle) % (q - 1) == 0]
        spaces = [([tuple(int(a == b) for b in range(len(on))) for a in range(len(on))], ())]
        for i in leaders:
            if all(len(basis) == 1 for basis, _ in spaces):
                break
            if i not in mats:
                mats[i] = _class_matrix(group, i, reps, class_of)
            R = [[sum(row[j] * lam_inv[u] for u, j in enumerate(b)) % ell for b in on]
                 for row in (mats[i][a[0]] for a in on)]
            spaces = _split(R, spaces, i, ell)
        if not all(len(basis) == 1 for basis, _ in spaces):
            raise ArithmeticError("eigenvector splitting did not reach lines")
        for (v,), history in spaces:
            full = [0] * k
            for x, cycle in zip(v, on):
                for u, j in enumerate(cycle):
                    full[j] = x * lam_inv[u] % ell
            lines.append((full, history))

    id_cls = class_of[group.id_index]
    size_inv = [pow(s, -1, ell) for s in sizes]
    chars_mod = []
    degrees = []
    for v, history in lines:
        if v[id_cls] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        norm = pow(v[id_cls], -1, ell)
        omega = [(x * norm) % ell for x in v]
        # omega[i] = omega_chi(K_i) is the eigenvalue of the i-th class
        # matrix on the line, so a step that kept a space whole as a scalar
        # it was not on leaves a line that disagrees here
        if any(omega[i] != lam for i, lam in history):
            raise ArithmeticError("a line disagrees with an eigenvalue the split gave it")
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
