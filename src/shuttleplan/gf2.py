"""Dense GF(2) linear algebra on numpy uint8 matrices."""

import numpy as np


def _as_gf2(a) -> np.ndarray:
    return (np.atleast_2d(np.asarray(a)) & 1).astype(np.uint8)


def rref(H: np.ndarray):
    """Reduced row echelon form over GF(2). Returns (R, pivot_columns)."""
    A = _as_gf2(H).copy()
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        rows = np.nonzero(A[r:, c])[0]
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        ones = np.nonzero(A[:, c])[0]
        ones = ones[ones != r]
        if ones.size:
            A[ones] ^= A[r]
        pivots.append(c)
        r += 1
    return A, pivots


def rank(H: np.ndarray) -> int:
    if np.asarray(H).size == 0:
        return 0
    return len(rref(H)[1])


def nullspace(H: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace {v : H v = 0}, one vector per row."""
    A = _as_gf2(H)
    n = A.shape[1]
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for t, c in enumerate(free):
        basis[t, c] = 1
        # back-substitute pivot columns
        for r, pc in enumerate(pivots):
            if R[r, c]:
                basis[t, pc] = 1
    return basis


def inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(2) matrix; raises ValueError if singular."""
    M = _as_gf2(M)
    k = M.shape[0]
    if M.shape[1] != k:
        raise ValueError("matrix is not square")
    aug = np.hstack([M, np.eye(k, dtype=np.uint8)])
    R, pivots = rref(aug)
    if len(pivots) < k or pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular over GF(2)")
    return R[:, k:]


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    return (_as_gf2(A).astype(np.int64) @ _as_gf2(B).astype(np.int64)) % 2
