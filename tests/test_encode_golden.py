"""Golden encoder fixture: positions and codewords pinned by sha256.

The digests were recorded from the systematic encoder before its row
reduction moved into ``ParityCheckMatrix.systematic_form``; they pin the
information/parity split and the codewords of seeded information words, so
any change to the elimination order, the pivot choice or the parity map
shows up as a digest mismatch.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.codes import build_scaled_ccsds_code
from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.encode import SystematicEncoder

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"

#: Seed of the information words whose codewords are pinned.
INFO_SEED = 20261018
#: Information words encoded per code.
NUM_WORDS = 8

#: code -> (k, sha256(information_positions as int64),
#:          sha256(parity_positions as int64), sha256(codewords as uint8))
GOLDEN = {
    "hamming": (
        4,
        "c7b3360b8d19bc21b9d6dbdf9e1357bfbdb1314fd2a1254ee765139318e988c1",
        "20a63514f83dec263f520fc6444731f7ff049af9db76456c05503e3f8fd1e117",
        "a2a7202b41e7f6080a620fac967c61072b460655e1bdab3a22e126dfcaa22ff1",
    ),
    "twin31": (
        436,
        "ed0843128213295ce1291e694d5408255253a297e48c955dad82756e0a81a1db",
        "2530c12f72c0cb2376c7ac8c0f2c64e5a08a2cb71c7fb72fd01c5dd71246df53",
        "72b6d939bd0cabfb29e548df336ca4dbc43f6a60b64298d00f514eaf90018a13",
    ),
    "twin63": (
        884,
        "b39325e2d01a33e611e6e452e498106a4d6fef78214c29f782a2a2bd2e5d6a49",
        "2ef4436119474be9eefe5374d467e7d14bd0ae917c5591f2c540881c50140cc9",
        "26a0089c155c022d17f6a4e37abd27855ad68fa6519101daf47678b198bc785d",
    ),
    "c2": (
        7156,
        "fb0a63a5fcc33ca78ab436c43d4783700e6f7ef0406d9635271f75c39f552560",
        "d9fa832df15a87cedd727a5a0258b9a7b00d91b94b64e5c86538bafd82b33ab5",
        "87b02fd21519921c56ab9e4f167529fb52693922340aae1d7dca8c9a922b34ae",
    ),
}


def _digest(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _assert_golden(name, code):
    encoder = SystematicEncoder(code)
    info = np.random.default_rng(INFO_SEED).integers(
        0, 2, size=(NUM_WORDS, encoder.dimension), dtype=np.uint8
    )
    observed = (
        encoder.dimension,
        _digest(encoder.information_positions, np.int64),
        _digest(encoder.parity_positions, np.int64),
        _digest(encoder.encode(info), np.uint8),
    )
    assert observed == GOLDEN[name]


def test_hamming_golden(hamming_pcm):
    _assert_golden("hamming", hamming_pcm)


def test_twin31_golden():
    _assert_golden("twin31", build_scaled_ccsds_code(31))


def test_twin63_golden():
    _assert_golden("twin63", build_scaled_ccsds_code(63))


@pytest.mark.slow
@pytest.mark.skipif(not FULL_SCALE, reason="full 8176-bit code (set REPRO_FULL_SCALE=1)")
def test_c2_golden():
    _assert_golden("c2", build_ccsds_c2_code())
