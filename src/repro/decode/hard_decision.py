"""Hard-decision decoders: Gallager-B and weighted bit flipping.

These are the classical low-complexity baselines against which soft
message-passing decoders (the subject of the paper) are justified: they need
only a fraction of the hardware but give up 1.5-2 dB of coding gain.  They
are included both as baselines for the evaluation harness and because their
implementation cost model is a useful lower anchor for the architecture
design-space exploration.
"""

from __future__ import annotations

import numpy as np

from repro.decode.base import FrameBatchDecoder
from repro.decode.result import DecodeResult
from repro.registry import Param, register_decoder
from repro.utils.bits import hard_decision

__all__ = ["GallagerBDecoder", "WeightedBitFlippingDecoder"]


@register_decoder(
    "gallager-b",
    params=[
        Param("flip_threshold", "int",
              doc="unsatisfied checks required to flip a bit; omitted uses "
              "a strict majority of the bit degree"),
    ],
    summary="Gallager-B hard-decision decoding (low-complexity baseline)",
)
class GallagerBDecoder(FrameBatchDecoder):
    """Gallager-B hard-decision decoding.

    Each iteration computes every parity check on the current hard decisions
    and flips the bits that participate in at least ``flip_threshold``
    unsatisfied checks.  With the CCSDS column weight of 4 the default
    threshold is 3 (strict majority of the 4 checks).

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Maximum number of flipping iterations.
    flip_threshold:
        Number of unsatisfied checks required to flip a bit; ``None`` uses a
        strict majority of the bit degree.
    """

    def __init__(self, code, max_iterations: int = 30, *, flip_threshold: int | None = None):
        super().__init__(code, max_iterations)
        if flip_threshold is None:
            max_degree = int(self._pcm.bit_degrees().max()) if self._pcm.block_length else 1
            flip_threshold = max_degree // 2 + 1
        if flip_threshold < 1:
            raise ValueError("flip_threshold must be at least 1")
        self.flip_threshold = int(flip_threshold)

    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        """Decode from channel LLRs (only their signs are used).

        ``iterations`` counts *executed* flipping iterations: the syndrome
        is evaluated before each round of flips, so a received word that is
        already a codeword records zero iterations (same convention as the
        message-passing decoders' iteration-0 check).
        """
        bits = hard_decision(llrs)
        batch = bits.shape[0]
        converged = np.zeros(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=np.int64)
        active = np.ones(batch, dtype=bool)

        check_idx, bit_idx = self._pcm.edges()
        for executed in range(self.max_iterations + 1):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            syndrome = self._pcm.syndrome(bits[idx])
            satisfied = ~syndrome.any(axis=1)
            converged[idx] = satisfied
            iterations[idx] = executed
            active[idx[satisfied]] = False
            if executed == self.max_iterations:
                break
            still_active = ~satisfied
            work = idx[still_active]
            if work.size == 0:
                break
            # Count, per bit, how many of its checks are unsatisfied.
            syndrome_work = syndrome[still_active]
            unsatisfied_on_edges = syndrome_work[:, check_idx].astype(np.int64)
            counts = np.zeros((work.size, self.block_length), dtype=np.int64)
            np.add.at(counts, (slice(None), bit_idx), unsatisfied_on_edges)
            flips = counts >= self.flip_threshold
            bits[work] ^= flips.astype(np.uint8)

        posterior = np.where(bits == 0, 1.0, -1.0) * np.abs(llrs)
        return DecodeResult(
            bits=bits, posterior_llrs=posterior, converged=converged, iterations=iterations
        )


@register_decoder(
    "wbf",
    params=[
        Param("flips_per_iteration", "int", default=1,
              doc="bits flipped per iteration (1 is the classical algorithm)"),
    ],
    summary="Weighted bit flipping (soft-metric hard-decision baseline)",
)
class WeightedBitFlippingDecoder(FrameBatchDecoder):
    """Weighted bit flipping: soft-aided single-bit-per-iteration flipping.

    Each unsatisfied check votes against its least reliable bits; the flip
    metric of a bit is the sum over its checks of ``(2*s_c - 1)`` weighted by
    the check's minimum input reliability, and the bits with the highest
    metric are flipped each iteration.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Maximum number of flipping iterations.
    flips_per_iteration:
        Number of bits flipped per iteration (1 is the classical algorithm;
        larger values converge faster on long codes at some risk of
        oscillation).
    """

    def __init__(self, code, max_iterations: int = 50, *, flips_per_iteration: int = 1):
        super().__init__(code, max_iterations)
        if flips_per_iteration < 1:
            raise ValueError("flips_per_iteration must be at least 1")
        self.flips_per_iteration = int(flips_per_iteration)

    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        """Decode from channel LLRs (signs for decisions, magnitudes as reliabilities).

        Like the other decoders, ``iterations`` counts executed flipping
        iterations: the syndrome is checked before each flip, so a
        codeword-in frame records zero iterations.
        """
        reliability = np.abs(llrs)
        bits = hard_decision(llrs)
        batch = bits.shape[0]
        converged = np.zeros(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=np.int64)

        check_idx, bit_idx = self._pcm.edges()
        graph = self._graph
        # Minimum reliability seen by each check (fixed across iterations).
        min_reliability = graph.min_per_check(graph.gather_bits(reliability))

        for frame in range(batch):
            frame_bits = bits[frame]
            for executed in range(self.max_iterations + 1):
                syndrome = self._pcm.syndrome(frame_bits)
                iterations[frame] = executed
                if not syndrome.any():
                    converged[frame] = True
                    break
                if executed == self.max_iterations:
                    break
                # Flip metric: sum over adjacent checks of +/- the check's
                # minimum reliability (positive when the check is unsatisfied).
                votes = (2.0 * syndrome[check_idx].astype(np.float64) - 1.0) * min_reliability[
                    frame, check_idx
                ]
                metric = np.zeros(self.block_length, dtype=np.float64)
                np.add.at(metric, bit_idx, votes)
                worst = np.argsort(metric)[-self.flips_per_iteration :]
                frame_bits[worst] ^= 1
            bits[frame] = frame_bits

        posterior = np.where(bits == 0, 1.0, -1.0) * reliability
        return DecodeResult(
            bits=bits, posterior_llrs=posterior, converged=converged, iterations=iterations
        )
