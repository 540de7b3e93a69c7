"""Ordered symmetric index bookkeeping for 4 spacetime dimensions.

Symmetric coordinate blocks are stored over ordered index tuples
(alpha <= beta, mu <= nu <= ...). The multiplicity n(mu,nu) is 1 on the
diagonal and 2 off it. Kernels work on full index arrays; `PAIR_FULL` is
the one ordered->full expansion: `v[PAIR_FULL]` turns an ordered-pair axis
into two full axes. Its triple and quadruple counterparts expand the
higher jet blocks, and the `*_UP` tables add one derivative direction to
an ordered tuple, which is how total-derivative shifts are read off the
next jet block.
"""

from __future__ import annotations

import itertools

import numpy as np

DIM = 4

# Ordered pairs alpha <= beta, lexicographic: 10 entries.
PAIRS: tuple[tuple[int, int], ...] = tuple(
    (a, b) for a in range(DIM) for b in range(a, DIM)
)
# Ordered triples mu <= nu <= lam: 20 entries.
TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.combinations_with_replacement(range(DIM), 3))
# Ordered quadruples: 35 entries (order-4 jet extension).
QUADS: tuple[tuple[int, int, int, int], ...] = tuple(
    itertools.combinations_with_replacement(range(DIM), 4))

# Antisymmetric pairs beta < gamma: 6 entries (torsion storage).
APAIRS: tuple[tuple[int, int], ...] = tuple(
    (b, c) for b in range(DIM) for c in range(b + 1, DIM)
)


def _full(combos) -> np.ndarray:
    """Position in `combos` of the sorted form of every full index tuple."""
    pos = {c: i for i, c in enumerate(combos)}
    k = len(combos[0])
    return np.array([pos[tuple(sorted(t))] for t in
                     itertools.product(range(DIM), repeat=k)]).reshape(
                         (DIM,) * k)


PAIR_FULL = _full(PAIRS)
TRIPLE_FULL = _full(TRIPLES)
QUAD_FULL = _full(QUADS)
# ordered tuple + one direction -> ordered tuple of one order more, (n, 4)
PAIR_UP = TRIPLE_FULL[tuple(np.array(PAIRS).T)]
TRIPLE_UP = QUAD_FULL[tuple(np.array(TRIPLES).T)]
# full[PAIR_ROWS] reads the ordered representatives of a symmetric pair
PAIR_ROWS = tuple(np.array(PAIRS).T)
# full[APAIR_ROWS] reads an antisymmetric pair over APAIRS
APAIR_ROWS = tuple(np.array(APAIRS).T)
# n(mu nu) per ordered pair
MULT = np.array([1.0 if a == b else 2.0 for a, b in PAIRS])


def pair_index(a: int, b: int) -> int:
    """Index of the unordered pair {a,b} in PAIRS."""
    return int(PAIR_FULL[a, b])


def mult(mu: int, nu: int) -> int:
    """n(mu nu): 1 if mu == nu, else 2."""
    return 1 if mu == nu else 2


def sym10_to_full(v) -> np.ndarray:
    """Expand an ordered-pair 10-vector into a symmetric 4x4 matrix."""
    return np.asarray(v, dtype=float)[PAIR_FULL]


def full_to_sym10(m) -> np.ndarray:
    """Collapse a symmetric 4x4 matrix to ordered-pair storage."""
    return np.asarray(m)[PAIR_ROWS]
