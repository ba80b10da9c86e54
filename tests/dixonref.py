"""The Dixon character table by the whole-space route, which only the tests
read.

`bftable.dixon_table` splits the class algebra first by the central
characters, builds each class matrix when the split first reads it, keeps
a space whole where a matrix is one scalar on it, and lifts the values once
per orbit of the power maps.  This module is the route those changes
replaced and the reference they are checked against: every class constant
counted up front from one row [x^-1 z for every x] per representative z,
the split started from the whole space and run over the class matrices in
order, a restriction and a characteristic polynomial at every step, and one
lift per class.  It shares the arithmetic mod ell (`_restrict_mod`,
`_charpoly_mod`, `_roots_mod`, `_kernel_mod`), the prime, the embedding and
the orthogonality check with `bftable`.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from glblocks import bftable as BT
from glblocks.bruteforce import oracle_classes


def per_class_lift(chars_mod, degrees, power_class, e, ell, z, modulus, w):
    """Each value's image in Z/modulus through its root-of-unity
    multiplicities, one length-o transform per class and character."""
    z_pows = [pow(z, m, ell) for m in range(e)]
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
            roots, w_row = lifts[len(powers)]
            mults = [sum(map(mul, [cm[c] for c in powers], row)) % ell for row in roots]
            assert sum(mults) == degrees[chi]
            image = sum(map(mul, mults, w_row)) % modulus
            assert image % ell == cm[i]
            images.append(image)
        residues.append(tuple(images))
    return tuple(residues)


def whole_space_dixon_table(n, q) -> BT.CharacterTable:
    """The character table of GL(n,q) by the whole-space route."""
    data = oracle_classes(n, q)
    group, reps, sizes, class_of = data.group, data.reps, data.sizes, data.class_of
    k, size = len(reps), len(group.rows)
    inv_class = tuple(class_of[group.inverses[r]] for r in reps)
    power_class = BT._power_classes(group, class_of, reps)
    e = lcm(*(len(row) for row in power_class))
    ell = BT._find_prime(e, size)
    z = BT._primitive_root_power(ell, e)

    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for kk in range(k):
        row = group.mul_pairs(group.inverses, [reps[kk]] * size)
        for i, j in zip(class_of, map(class_of.__getitem__, row)):
            mats[i][j][kk] += 1

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
            R = BT._restrict_mod(mats[i], sp, ell)
            columns = list(zip(*sp))
            found = 0
            for x in BT._roots_mod(BT._charpoly_mod(R, ell), ell):
                shifted = [[(R[a][b] - (x if a == b else 0)) % ell
                            for b in range(m)] for a in range(m)]
                ker = BT._kernel_mod(shifted, ell)
                assert ker
                nxt.append([tuple(sum(map(mul, kv, col)) % ell for col in columns)
                            for kv in ker])
                found += len(ker)
            assert found == m
        spaces = nxt
    assert len(spaces) == k and all(len(sp) == 1 for sp in spaces)

    id_cls = class_of[group.id_index]
    size_inv = [pow(s, -1, ell) for s in sizes]
    chars_mod, degrees = [], []
    for (v,) in spaces:
        norm = pow(v[id_cls], -1, ell)
        omega = [(x * norm) % ell for x in v]
        t = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % ell
        target = size * pow(t, -1, ell) % ell
        deg = next(s for s in range(1, isqrt(size) + 1) if s * s % ell == target)
        chars_mod.append([deg * x * s_inv % ell for x, s_inv in zip(omega, size_inv)])
        degrees.append(deg)
    assert sum(d * d for d in degrees) == size

    top = max(degrees)
    modulus, w = BT._embedding(e, ell, z, 2 * size * (top * max(top, size // BT._borel_order(n, q)) + 1))
    residues = per_class_lift(chars_mod, degrees, power_class, e, ell, z, modulus, w)
    tab = BT.CharacterTable(size, e, reps, sizes, inv_class, tuple(degrees), modulus, w, residues)
    BT._verify_orthogonality(tab)
    return tab
