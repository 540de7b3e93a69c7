"""Ordered symmetric index bookkeeping for 4 spacetime dimensions.

Symmetric coordinate blocks are stored over ordered index tuples
(alpha <= beta, mu <= nu <= ...). The multiplicity n(mu,nu) is 1 on the
diagonal and 2 off it. Kernels work on full index arrays; `PAIR_FULL` is
the one ordered->full expansion: `v[PAIR_FULL]` turns an ordered-pair axis
into two full axes. `DERIVS` lists the ordered derivative tuples of each
order, and `UP` adds one derivative direction to an ordered tuple, which
is how total-derivative shifts are read off the next jet block.
"""

from __future__ import annotations

import itertools

import numpy as np

DIM = 4

# Ordered derivative-index tuples of each order 0..3, lexicographic:
# 1, 4, 10 and 20 entries. Order k indexes the last axis of the jet
# block of k-th derivatives.
DERIVS: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
    tuple(itertools.combinations_with_replacement(range(DIM), k))
    for k in range(4))
PAIRS, TRIPLES = DERIVS[2:]

# Antisymmetric pairs beta < gamma: 6 entries (torsion storage).
APAIRS: tuple[tuple[int, int], ...] = tuple(
    (b, c) for b in range(DIM) for c in range(b + 1, DIM)
)


def _up(k: int) -> np.ndarray:
    """Position in DERIVS[k + 1] of each order-k tuple with one direction
    added, (len(DERIVS[k]), DIM)."""
    pos = {c: i for i, c in enumerate(DERIVS[k + 1])}
    return np.array([[pos[tuple(sorted(c + (t,)))] for t in range(DIM)]
                     for c in DERIVS[k]])


# UP[k]: ordered tuple of order k + one direction -> ordered tuple of
# order k + 1; total-derivative shifts read the next jet block through it
UP = tuple(_up(k) for k in range(len(DERIVS) - 1))
PAIR_FULL = UP[1]
# full[PAIR_ROWS] reads the ordered representatives of a symmetric pair
PAIR_ROWS = tuple(np.array(PAIRS).T)
# full[APAIR_ROWS] reads an antisymmetric pair over APAIRS
APAIR_ROWS = tuple(np.array(APAIRS).T)
# n(mu nu) per ordered pair
MULT = np.array([1.0 if a == b else 2.0 for a, b in PAIRS])


def pair_index(a: int, b: int) -> int:
    """Index of the unordered pair {a,b} in PAIRS."""
    return int(PAIR_FULL[a, b])
