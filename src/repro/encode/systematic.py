"""General systematic encoder derived from a parity-check matrix.

The encoder reads the systematic form of H — *parity positions* (the pivot
columns of the reduced matrix), *information positions* (the free columns)
and the map from information bits to parity bits — from
:meth:`~repro.codes.parity_check.ParityCheckMatrix.systematic_form`, the one
GF(2) row reduction per matrix, which also yields the code dimension.
Building an encoder therefore runs no elimination of its own: the first
build on a matrix pays the reduction (about 0.75 s on the full 8176-bit C2
code, about 5 ms on the n = 1008 scaled twin, 2-core x86 VM, numpy 2.4) and
every later build, in the same process, only unpacks the kept map.
Encoding a frame (or a batch of frames) is then a single GF(2) matrix
product.

This is the reference encoder used by the Monte-Carlo simulations; the
hardware-style circulant encoder lives in :mod:`repro.encode.qc_encoder`.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.codes.parity_check import ParityCheckMatrix, as_parity_check_matrix
from repro.utils.validation import check_binary_array

__all__ = ["SystematicEncoder", "parity_check_fingerprint"]


def parity_check_fingerprint(pcm: ParityCheckMatrix) -> str:
    """Content hash of a parity-check matrix (shape + bit pattern)."""
    h_dense = pcm.to_dense()
    digest = hashlib.sha256()
    digest.update(np.asarray(h_dense.shape, dtype=np.int64).tobytes())
    digest.update(np.packbits(h_dense, axis=None).tobytes())
    return digest.hexdigest()


class SystematicEncoder:
    """Encoder mapping information bits to codewords of an LDPC code.

    Parameters
    ----------
    code:
        Either a :class:`~repro.codes.parity_check.ParityCheckMatrix`, an
        object with a ``parity_check_matrix()`` method (such as
        :class:`~repro.codes.qc.QCLDPCCode`), or a dense 0/1 H matrix.
    """

    def __init__(self, code: Any) -> None:
        pcm = as_parity_check_matrix(code)
        self._pcm = pcm
        parity_cols, info_cols, packed_map = pcm.systematic_form()
        self._pivot_cols = parity_cols
        self._info_cols = info_cols
        self._parity_map = np.unpackbits(packed_map, axis=1, count=info_cols.size)

    # ------------------------------------------------------------------ #
    @property
    def parity_check(self) -> ParityCheckMatrix:
        """The parity-check matrix this encoder was derived from."""
        return self._pcm

    @property
    def block_length(self) -> int:
        """Codeword length ``n``."""
        return self._pcm.block_length

    @property
    def dimension(self) -> int:
        """Number of information bits ``k``."""
        return int(self._info_cols.size)

    @property
    def information_positions(self) -> np.ndarray:
        """Codeword positions that carry the information bits (in order)."""
        return self._info_cols.copy()

    @property
    def parity_positions(self) -> np.ndarray:
        """Codeword positions that carry parity bits."""
        return self._pivot_cols.copy()

    # ------------------------------------------------------------------ #
    def encode(self, information_bits: npt.ArrayLike) -> np.ndarray:
        """Encode information bits into a codeword.

        Parameters
        ----------
        information_bits:
            Array of shape ``(k,)`` or ``(batch, k)``.

        Returns
        -------
        numpy.ndarray
            Codewords of shape ``(n,)`` or ``(batch, n)`` satisfying every
            parity check of H.
        """
        info = check_binary_array("information_bits", information_bits)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        if info.shape[1] != self.dimension:
            raise ValueError(
                f"expected {self.dimension} information bits per frame, "
                f"got {info.shape[1]}"
            )
        parity = (info.astype(np.int64) @ self._parity_map.T.astype(np.int64)) % 2
        codewords = np.zeros((info.shape[0], self.block_length), dtype=np.uint8)
        codewords[:, self._info_cols] = info
        codewords[:, self._pivot_cols] = parity.astype(np.uint8)
        return codewords[0] if single else codewords

    def extract_information(self, codeword: npt.ArrayLike) -> np.ndarray:
        """Recover the information bits from a (decoded) codeword."""
        word = check_binary_array("codeword", codeword)
        if word.shape[-1] != self.block_length:
            raise ValueError(
                f"expected codewords of length {self.block_length}, got {word.shape[-1]}"
            )
        return word[..., self._info_cols]
