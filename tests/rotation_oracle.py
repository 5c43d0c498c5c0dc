"""The rotation generators K_ab = x_a d_b - x_b d_a on state vectors.

With unnormalized Hermite functions phi_n = H_n(x) exp(-x^2/2),
(x + d) phi_n = 2n phi_(n-1) and (x - d) phi_n = phi_(n+1), so K_ab sends
the orbital o to o_b (o + e_a - e_b) - o_a (o - e_a + e_b): integer
coefficients, and the grade is kept (Abramowitz & Stegun, ch. 22).  A
state is the determinant (permanent) of its orbitals, linear in each row,
so K acts on it one row at a time: each new row is re-sorted with its
phase and located (LevelBasis.locate_signed), and equal targets are
summed.  The orbitals are read from the per-code axis degrees
(OrbitalCodes.axis_degrees).  Nothing here shares code with
products.apply_maps or with the Coulomb pair values.

V = sum 1/r_ij is invariant under rotations and K is anti-Hermitian, so
for any u and w of one level D<u|V|Kw> + D<Ku|V|w> = 0, exactly, in the
integer numerators of coulomb._contract.
"""

import numpy as np

from shapes import coulomb


def rotate(basis, vec, a, b):
    """K_ab applied to a {state index: int} vector of one level, zeros dropped."""
    degrees = basis.codes.axis_degrees(basis.grade).tolist()
    index = basis.codes.index
    rows, weights = [], []
    for i, c in vec.items():
        codes = basis.code_array[i].tolist()
        for j, code in enumerate(codes):
            orbital = degrees[code]
            for weight, step in ((orbital[b], 1), (-orbital[a], -1)):
                if weight:
                    image = list(orbital)
                    image[a] += step
                    image[b] -= step
                    rows.append(codes[:j] + [index[tuple(image)]] + codes[j + 1 :])
                    weights.append(weight * c)
    out = {}
    if rows:
        targets, phases = basis.locate_signed(np.array(rows, dtype=np.int64))
        for t, phase, w in zip(targets.tolist(), phases.tolist(), weights):
            if phase:
                out[t] = out.get(t, 0) + phase * w
    return {t: c for t, c in out.items() if c}


def pair_defect(basis, u, w, a, b):
    """D<u|V|K_ab w> + D<K_ab u|V|w>, exact; a term with a zero image is 0."""
    total = 0
    for bra, ket in ((u, rotate(basis, w, a, b)), (rotate(basis, u, a, b), w)):
        if bra and ket:
            numerators, _norms = coulomb._contract(basis, [bra, ket], True)
            total += numerators.get((0, 1), 0)
    return total


def coulomb_matrix(basis):
    """D<i|V|j> for every pair of states of a level, a symmetric object array."""
    size = len(basis)
    numerators, _norms = coulomb._contract(basis, [{i: 1} for i in range(size)], True)
    v = np.zeros((size, size), dtype=object)
    for (i, j), value in numerators.items():
        v[i, j] = v[j, i] = value
    return v


def level_defect(basis, v, a, b):
    """V K_ab + K_ab^T V over a whole level, from its Coulomb matrix v."""
    vk = np.zeros_like(v)
    for j in range(len(basis)):
        image = rotate(basis, {j: 1}, a, b)
        if image:
            vk[:, j] = v[:, list(image)] @ np.array(list(image.values()), dtype=object)
    return vk + vk.T
