"""Parity-check matrix wrapper.

``ParityCheckMatrix`` owns the sparse H matrix of an LDPC code and exposes
the views the rest of the library needs: degree profiles, syndrome checks,
edge lists for the decoders, the scatter data used to reproduce Figure 2 of
the paper, and the systematic form of H.

The systematic form is the one GF(2) row reduction of H in the library.  The
CCSDS C2 matrix has even-weight columns, so H is rank deficient and both the
code dimension ``k = n - rank(H)`` and the systematic encoder's parity map
come out of that elimination.  :meth:`ParityCheckMatrix.systematic_form`
runs it lazily, once per matrix, and keeps the result; ``rank``,
``dimension`` and :class:`~repro.encode.systematic.SystematicEncoder` all
read it.  The elimination takes about 0.75 s on the full 1022 x 8176 C2
matrix and about 5 ms on the n = 1008 scaled twin (2-core x86 VM,
numpy 2.4).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.gf2.dense import gf2_row_reduce
from repro.gf2.sparse import SparseBinaryMatrix

__all__ = ["ParityCheckMatrix", "as_parity_check_matrix"]

#: ``(parity_positions, information_positions, packed_parity_map)`` of H.
_SystematicForm = tuple[npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.uint8]]


class ParityCheckMatrix:
    """Sparse parity-check matrix of an (n, k) LDPC code.

    Parameters
    ----------
    matrix:
        Either a :class:`~repro.gf2.sparse.SparseBinaryMatrix` or a dense 0/1
        array of shape ``(m, n)`` where ``m`` is the number of parity checks
        and ``n`` the code length.
    """

    def __init__(self, matrix: SparseBinaryMatrix | npt.ArrayLike) -> None:
        if isinstance(matrix, SparseBinaryMatrix):
            self._sparse = matrix
        else:
            self._sparse = SparseBinaryMatrix.from_dense(np.asarray(matrix))
        self._systematic: _SystematicForm | None = None

    # ------------------------------------------------------------------ #
    # Basic dimensions
    # ------------------------------------------------------------------ #
    @property
    def sparse(self) -> SparseBinaryMatrix:
        """The underlying sparse matrix."""
        return self._sparse

    @property
    def num_checks(self) -> int:
        """Number of parity-check rows ``m``."""
        return self._sparse.shape[0]

    @property
    def block_length(self) -> int:
        """Code length ``n`` (number of columns)."""
        return self._sparse.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of ones in H — the number of messages exchanged per iteration."""
        return self._sparse.nnz

    @property
    def rank(self) -> int:
        """GF(2) rank of H: the number of pivots of :meth:`systematic_form`."""
        return int(self.systematic_form()[0].size)

    @property
    def dimension(self) -> int:
        """Code dimension ``k = n - rank(H)``."""
        return self.block_length - self.rank

    @property
    def design_rate(self) -> float:
        """Design rate ``(n - m) / n`` assuming full-rank H."""
        return (self.block_length - self.num_checks) / self.block_length

    @property
    def rate(self) -> float:
        """True code rate ``k / n`` using the actual rank of H."""
        return self.dimension / self.block_length

    def systematic_form(self) -> _SystematicForm:
        """``(parity_positions, information_positions, packed_parity_map)`` of H.

        One GF(2) row reduction of H, run on the first call and kept.  The
        pivot columns of the reduced matrix are the *parity positions* and
        the free columns the *information positions*, both ascending.  Pivot
        row ``r`` reads ``c[parity_positions[r]] = sum_f map[r, f] *
        c[information_positions[f]]``; the ``(rank, k)`` map is stored
        bit-packed along the information axis (``np.packbits(map, axis=1)``),
        which keeps the memo of the full C2 matrix under 1 MB.  The arrays
        are read-only because every caller shares them.
        """
        if self._systematic is None:
            reduced, pivots = gf2_row_reduce(self._sparse.to_dense())
            parity = np.array(pivots, dtype=np.int64)
            info = np.setdiff1d(np.arange(self.block_length, dtype=np.int64), parity)
            packed = np.packbits(reduced[: parity.size][:, info], axis=1)
            for array in (parity, info, packed):
                array.flags.writeable = False
            self._systematic = (parity, info, packed)
        return self._systematic

    # ------------------------------------------------------------------ #
    # Degree profiles
    # ------------------------------------------------------------------ #
    def check_degrees(self) -> np.ndarray:
        """Degree (row weight) of every check node."""
        return self._sparse.row_degrees()

    def bit_degrees(self) -> np.ndarray:
        """Degree (column weight) of every bit node."""
        return self._sparse.col_degrees()

    def is_regular(self) -> bool:
        """``True`` when all check degrees are equal and all bit degrees are equal."""
        check = self.check_degrees()
        bit = self.bit_degrees()
        return bool(
            check.size
            and bit.size
            and (check == check[0]).all()
            and (bit == bit[0]).all()
        )

    def degree_profile(self) -> dict[str, dict[int, int]]:
        """Histogram of check and bit degrees.

        Returns a dictionary ``{"check": {degree: count}, "bit": {...}}``.
        """
        check_vals, check_counts = np.unique(self.check_degrees(), return_counts=True)
        bit_vals, bit_counts = np.unique(self.bit_degrees(), return_counts=True)
        return {
            "check": {int(v): int(c) for v, c in zip(check_vals, check_counts)},
            "bit": {int(v): int(c) for v, c in zip(bit_vals, bit_counts)},
        }

    # ------------------------------------------------------------------ #
    # Edge views and syndrome
    # ------------------------------------------------------------------ #
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(check_index, bit_index)`` arrays of every edge, sorted by check."""
        return self._sparse.row_indices, self._sparse.col_indices

    def syndrome(self, codeword: npt.ArrayLike) -> np.ndarray:
        """Syndrome ``H @ c^T mod 2`` for a codeword or a batch of codewords."""
        return self._sparse.matvec(codeword)

    def is_codeword(self, word: npt.ArrayLike) -> bool | np.ndarray:
        """Whether a word (or each word of a batch) satisfies all parity checks."""
        syndrome = self.syndrome(word)
        if syndrome.ndim == 1:
            return bool(not syndrome.any())
        return np.logical_not(syndrome.any(axis=1))

    # ------------------------------------------------------------------ #
    # Figure-2 style views
    # ------------------------------------------------------------------ #
    def scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of every 1 in H, for scatter plots (paper Figure 2)."""
        return self._sparse.row_indices.copy(), self._sparse.col_indices.copy()

    def density_grid(self, row_bins: int, col_bins: int) -> np.ndarray:
        """Count the ones of H in a ``row_bins x col_bins`` grid.

        This is an ASCII-friendly stand-in for the scatter chart: each cell
        of the returned array counts the ones whose coordinates fall in the
        corresponding rectangle of H.
        """
        if row_bins <= 0 or col_bins <= 0:
            raise ValueError("bin counts must be positive")
        rows, cols = self.scatter()
        m, n = self._sparse.shape
        row_cell = np.minimum((rows * row_bins) // m, row_bins - 1)
        col_cell = np.minimum((cols * col_bins) // n, col_bins - 1)
        grid = np.zeros((row_bins, col_bins), dtype=np.int64)
        np.add.at(grid, (row_cell, col_cell), 1)
        return grid

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 copy of H (use only for small codes and tests)."""
        return self._sparse.to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParityCheckMatrix(m={self.num_checks}, n={self.block_length}, "
            f"edges={self.num_edges})"
        )


def as_parity_check_matrix(code: Any) -> ParityCheckMatrix:
    """Coerce a code-like object into a :class:`ParityCheckMatrix`.

    Accepts a ``ParityCheckMatrix``, any object exposing a
    ``parity_check_matrix()`` method (``QCLDPCCode``), an object with a
    ``base_code`` attribute (``ShortenedCode``), or a dense 0/1 array.
    """
    if isinstance(code, ParityCheckMatrix):
        return code
    if hasattr(code, "parity_check_matrix"):
        return code.parity_check_matrix()
    if hasattr(code, "base_code"):
        return as_parity_check_matrix(code.base_code)
    return ParityCheckMatrix(np.asarray(code))
