"""Dense GF(2) matrix operations.

All matrices are numpy ``uint8`` arrays containing 0/1.  The routines here
are the workhorses for deriving generator matrices from parity-check
matrices, computing code dimensions, and verifying codewords in tests.

They are written to be clear rather than maximally fast: the largest dense
operation in the library is the row reduction of the CCSDS 1022 x 8176
parity-check matrix, which runs once per matrix (in
``ParityCheckMatrix.systematic_form``) and takes about 0.75 s with the
vectorized XOR elimination used below (about 5 ms for the n = 1008 scaled
twin; 2-core x86 VM, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_binary_array

__all__ = [
    "is_binary_matrix",
    "gf2_matmul",
    "gf2_matvec",
    "gf2_row_reduce",
    "gf2_rank",
    "gf2_null_space",
    "gf2_solve",
    "gf2_inverse",
]


def is_binary_matrix(matrix) -> bool:
    """Return ``True`` when every entry of ``matrix`` is 0 or 1."""
    arr = np.asarray(matrix)
    return bool(np.isin(arr, (0, 1)).all())


def _as_gf2(name: str, matrix) -> np.ndarray:
    arr = check_binary_array(name, matrix)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got {arr.ndim}-D")
    return arr


def gf2_matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2): ``(A @ B) mod 2``."""
    a = _as_gf2("a", a)
    b = _as_gf2("b", b)
    product = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    return product.astype(np.uint8)


def gf2_matvec(matrix, vector) -> np.ndarray:
    """Matrix-vector product over GF(2).

    ``vector`` may be a single vector of length ``n`` or a batch of shape
    ``(batch, n)``; the product is applied along the last axis.
    """
    matrix = _as_gf2("matrix", matrix)
    vec = check_binary_array("vector", vector)
    if vec.ndim == 1:
        return (matrix.astype(np.int64) @ vec.astype(np.int64) % 2).astype(np.uint8)
    if vec.ndim == 2:
        return (vec.astype(np.int64) @ matrix.T.astype(np.int64) % 2).astype(np.uint8)
    raise ValueError("vector must be 1-D or 2-D")


def gf2_row_reduce(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form of a binary matrix over GF(2).

    Returns
    -------
    (rref, pivot_columns):
        ``rref`` is the reduced matrix (same shape as the input) and
        ``pivot_columns`` the list of pivot column indices, whose length is
        the GF(2) rank.
    """
    work = _as_gf2("matrix", matrix)
    if work.ndim != 2:
        raise ValueError("matrix must be 2-D")
    work = work.copy()
    rows, cols = work.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # Find a row at or below pivot_row with a 1 in this column.
        candidates = np.nonzero(work[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + int(candidates[0])
        if swap != pivot_row:
            work[[pivot_row, swap]] = work[[swap, pivot_row]]
        # Eliminate every other 1 in this column with a vectorized XOR.
        column = work[:, col].copy()
        column[pivot_row] = 0
        targets = np.nonzero(column)[0]
        if targets.size:
            work[targets] ^= work[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
    return work, pivot_cols


def gf2_rank(matrix) -> int:
    """GF(2) rank of a binary matrix."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def gf2_null_space(matrix) -> np.ndarray:
    """Basis of the right null space of ``matrix`` over GF(2).

    Returns an array of shape ``(nullity, n)`` whose rows satisfy
    ``matrix @ row^T == 0 (mod 2)``.  For a parity-check matrix the rows are
    a generator basis of the code.
    """
    matrix = _as_gf2("matrix", matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rref, pivots = gf2_row_reduce(matrix)
    _, cols = rref.shape
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        # Back-substitute: pivot row r has its pivot at pivots[r]; the free
        # column contributes rref[r, free] to that pivot variable.
        for r, pivot_col in enumerate(pivots):
            if rref[r, free]:
                basis[i, pivot_col] = 1
    return basis


def gf2_solve(matrix, rhs) -> np.ndarray | None:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one particular solution ``x`` (length ``n``) or ``None`` when the
    system is inconsistent.
    """
    matrix = _as_gf2("matrix", matrix)
    rhs = check_binary_array("rhs", rhs)
    if matrix.ndim != 2 or rhs.ndim != 1:
        raise ValueError("matrix must be 2-D and rhs 1-D")
    if matrix.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows but rhs has length {rhs.shape[0]}"
        )
    augmented = np.concatenate([matrix, rhs[:, None]], axis=1)
    rref, pivots = gf2_row_reduce(augmented)
    n = matrix.shape[1]
    # Inconsistent if a pivot landed in the augmented column.
    if pivots and pivots[-1] == n:
        return None
    solution = np.zeros(n, dtype=np.uint8)
    for row, pivot_col in enumerate(pivots):
        solution[pivot_col] = rref[row, n]
    return solution


def gf2_inverse(matrix) -> np.ndarray:
    """Inverse of a square, invertible binary matrix over GF(2).

    Raises
    ------
    ValueError
        If the matrix is not square or not invertible.
    """
    matrix = _as_gf2("matrix", matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    n = matrix.shape[0]
    augmented = np.concatenate([matrix, np.eye(n, dtype=np.uint8)], axis=1)
    rref, pivots = gf2_row_reduce(augmented)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return rref[:, n:].astype(np.uint8)
