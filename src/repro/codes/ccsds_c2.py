"""The CCSDS C2 near-earth LDPC code.

The CCSDS 131.1-O-2 recommendation specifies a Quasi-Cyclic LDPC code whose
parity-check matrix is a 2 x 16 array of 511 x 511 circulants, each circulant
of row and column weight 2; the expanded matrix is 1022 x 8176 with total row
weight 32 and total column weight 4 (paper Section 2.2 and Figure 2).  For
transmission the code is shortened to an 8160-bit frame carrying 7136
information bits.

The official first-row position tables are not redistributed here; this
module builds a code with the identical structure and girth >= 6 using the
deterministic girth-aware construction of
:func:`repro.codes.construction.build_ccsds_like_spec` (see DESIGN.md for the
substitution rationale).  Loading the official tables through
:mod:`repro.io.circulant_table` produces a drop-in replacement.
"""

from __future__ import annotations

from repro.codes.construction import build_ccsds_like_spec
from repro.codes.qc import CirculantSpec, QCLDPCCode
from repro.codes.shortening import ShortenedCode

__all__ = [
    "CCSDS_C2_CIRCULANT_SIZE",
    "CCSDS_C2_ROW_BLOCKS",
    "CCSDS_C2_COLUMN_BLOCKS",
    "CCSDS_C2_BLOCK_WEIGHT",
    "CCSDS_C2_BLOCK_LENGTH",
    "CCSDS_C2_NUM_CHECKS",
    "CCSDS_C2_TX_FRAME_LENGTH",
    "CCSDS_C2_TX_INFO_BITS",
    "CCSDS_C2_DEFAULT_SEED",
    "build_ccsds_c2_spec",
    "build_ccsds_c2_code",
    "build_ccsds_c2_transmission_code",
    "build_scaled_ccsds_code",
]

#: Size of every circulant block in the CCSDS C2 parity-check matrix.
CCSDS_C2_CIRCULANT_SIZE = 511
#: Number of block rows (each contributes 511 parity checks).
CCSDS_C2_ROW_BLOCKS = 2
#: Number of block columns (each contributes 511 code bits).
CCSDS_C2_COLUMN_BLOCKS = 16
#: Row/column weight of every circulant block.
CCSDS_C2_BLOCK_WEIGHT = 2
#: Length of the unshortened code: 16 * 511 = 8176 bits.
CCSDS_C2_BLOCK_LENGTH = CCSDS_C2_COLUMN_BLOCKS * CCSDS_C2_CIRCULANT_SIZE
#: Number of parity-check equations: 2 * 511 = 1022 (some are redundant).
CCSDS_C2_NUM_CHECKS = CCSDS_C2_ROW_BLOCKS * CCSDS_C2_CIRCULANT_SIZE
#: Transmitted (shortened) frame length used by the CCSDS standard.
CCSDS_C2_TX_FRAME_LENGTH = 8160
#: Information bits per transmitted frame.
CCSDS_C2_TX_INFO_BITS = 7136
#: Seed of the deterministic girth-aware construction (fixed so that every
#: run of the library builds exactly the same code).
CCSDS_C2_DEFAULT_SEED = 20091311


def build_ccsds_c2_spec(
    *, circulant_size: int = CCSDS_C2_CIRCULANT_SIZE, seed: int = CCSDS_C2_DEFAULT_SEED
) -> CirculantSpec:
    """Circulant specification with the CCSDS C2 structure.

    Parameters
    ----------
    circulant_size:
        511 for the real code; smaller odd values give structurally identical
        scaled-down codes for fast tests and benchmarks.
    seed:
        Seed of the deterministic construction.  The default produces the
        library's reference code.
    """
    return build_ccsds_like_spec(
        circulant_size=circulant_size,
        row_blocks=CCSDS_C2_ROW_BLOCKS,
        col_blocks=CCSDS_C2_COLUMN_BLOCKS,
        block_weight=CCSDS_C2_BLOCK_WEIGHT,
        rng=seed,
    )


def build_ccsds_c2_code(
    *, circulant_size: int = CCSDS_C2_CIRCULANT_SIZE, seed: int = CCSDS_C2_DEFAULT_SEED
) -> QCLDPCCode:
    """The (8176, ~7154) base QC-LDPC code (unshortened)."""
    return QCLDPCCode(build_ccsds_c2_spec(circulant_size=circulant_size, seed=seed))


def build_ccsds_c2_transmission_code(
    *,
    circulant_size: int = CCSDS_C2_CIRCULANT_SIZE,
    seed: int = CCSDS_C2_DEFAULT_SEED,
    info_bits: int | None = None,
    frame_length: int | None = None,
) -> ShortenedCode:
    """The shortened transmission code (8160-bit frame, 7136 information bits).

    The base code's dimension depends on the rank of H (the all-even column
    weights make H rank deficient), so the number of shortened bits is
    computed from the actual dimension rather than hard-coded.  For scaled
    circulant sizes the frame parameters are scaled proportionally.

    The virtual fill is the first information positions of H's systematic
    form, so a random-data simulation can zero exactly those information
    bits before encoding.
    """
    code = build_ccsds_c2_code(circulant_size=circulant_size, seed=seed)
    scale = circulant_size / CCSDS_C2_CIRCULANT_SIZE
    if info_bits is None:
        info_bits = int(round(CCSDS_C2_TX_INFO_BITS * scale))
    if frame_length is None:
        frame_length = int(round(CCSDS_C2_TX_FRAME_LENGTH * scale))
    info_bits = min(info_bits, code.dimension)
    _, information_positions, _ = code.parity_check_matrix().systematic_form()
    return ShortenedCode(
        code,
        info_bits=info_bits,
        frame_length=frame_length,
        shortened_positions=information_positions[: code.dimension - info_bits],
    )


def build_scaled_ccsds_code(
    circulant_size: int = 31, *, seed: int = CCSDS_C2_DEFAULT_SEED
) -> QCLDPCCode:
    """A scaled-down twin of the CCSDS code (same 2 x 16 weight-2 structure).

    Used throughout the tests and default benchmark parameters: the code path
    is identical to the full code, only the circulant size (and therefore the
    block length) changes.
    """
    return build_ccsds_c2_code(circulant_size=circulant_size, seed=seed)
