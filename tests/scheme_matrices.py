"""Dense matrices of a scheme, for exact checks in the tests.

The adjacency matrix of each relation and the scaled primitive idempotents,
built from the multiplication table; the program itself never needs them.
"""

from math import gcd

import numpy as np

from diagsync.scheme import AssociationScheme


def adjacency_matrices(scheme: AssociationScheme) -> list[np.ndarray]:
    group = scheme.group
    products = group.mul_rows(np.arange(group.order))[:, group.inverses()]   # u * v^-1
    rel = scheme._rel_of[products]
    return [(rel == r.id).astype(np.int64) for r in scheme.relations]


def projection_matrices_scaled(scheme: AssociationScheme) -> tuple[list[np.ndarray], int]:
    """Integer matrices s*E_i with one common scale s (for exact idempotency checks)."""
    if scheme.eigen is None:
        raise ValueError("scheme has no exact dual eigenmatrix")
    qmat = scheme.eigen.Q
    n = len(scheme.relations)
    denom = 1
    for j in range(n):
        for i in range(n):
            denom = denom * qmat[j][i].denominator // gcd(denom, qmat[j][i].denominator)
    scale = scheme.omega * denom
    adj = adjacency_matrices(scheme)
    mats = []
    for i in range(n):
        acc = np.zeros_like(adj[0])
        for j in range(n):
            coeff = qmat[j][i] * denom
            acc += int(coeff) * adj[j]
        mats.append(acc)
    return mats, scale
