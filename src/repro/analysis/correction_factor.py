"""Correction-factor (alpha) optimization for normalized min-sum.

The paper (Section 5): "the key idea is to find the factor which minimizes
the difference between the means of the messages passed in the BP algorithm
and the sign-min algorithm."  Two implementations of that idea are provided:

* :func:`optimize_alpha_density_evolution` — analytical: for Gaussian
  incoming messages of a given mean, compute the expected check-node output
  of exact BP and of min-sum, and pick the alpha whose scaled min-sum mean
  matches the BP mean (averaged over the operating range of input means);
* :func:`optimize_alpha_empirical` — empirical: run both check-node kernels
  on messages harvested from actual decoder iterations of a given code at a
  given Eb/N0 and match the means.

For the CCSDS degree profile (check degree 32) both approaches place the
correction in the 1.1-1.5 range, consistent with the frame-error-rate optimum
measured by ``benchmarks/bench_ablation_alpha.py``; the library default of
1.25 sits on that plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import ebn0_to_sigma
from repro.channel.llr import channel_llrs
from repro.channel.modulation import BPSKModulator
from repro.codes.parity_check import as_parity_check_matrix
from repro.decode.graph import tanner_graph
from repro.utils.rng import ensure_rng

__all__ = [
    "CorrectionFactorResult",
    "check_output_magnitude_means",
    "bp_check_mean",
    "min_sum_check_mean",
    "optimize_alpha_density_evolution",
    "optimize_alpha_empirical",
    "empirical_mean_mismatch",
]


@dataclass(frozen=True)
class CorrectionFactorResult:
    """Outcome of a correction-factor optimization."""

    alpha: float
    mismatch: float
    candidates: tuple[float, ...]
    mismatches: tuple[float, ...]

    @property
    def scale(self) -> float:
        """The multiplicative factor ``1 / alpha``."""
        return 1.0 / self.alpha


def _sample_incoming(mean: float, check_degree: int, samples: int, rng) -> np.ndarray:
    """Draw consistent-Gaussian incoming messages of the given mean."""
    sigma = np.sqrt(2.0 * max(mean, 1e-9))
    return rng.normal(mean, sigma, size=(samples, check_degree - 1))


def check_output_magnitude_means(
    mean_in: float, check_degree: int, *, samples: int = 20000, rng=None
) -> tuple[float, float]:
    """Mean output *magnitudes* of the BP and sign-min check updates.

    Both kernels are evaluated on the same Gaussian incoming samples (paired
    comparison), which is what makes the mean matching well conditioned even
    for the CCSDS check degree of 32 where the *signed* output mean is close
    to zero.

    Returns
    -------
    (bp_mean, min_sum_mean)
    """
    rng = ensure_rng(rng if rng is not None else 0)
    incoming = _sample_incoming(mean_in, check_degree, samples, rng)
    tanh_half = np.tanh(np.abs(incoming) / 2.0)
    product = np.prod(np.clip(tanh_half, 1e-12, 1 - 1e-12), axis=1)
    bp_magnitude = 2.0 * np.arctanh(product)
    min_sum_magnitude = np.min(np.abs(incoming), axis=1)
    return float(np.mean(bp_magnitude)), float(np.mean(min_sum_magnitude))


def bp_check_mean(mean_in: float, check_degree: int, *, samples: int = 20000, rng=None) -> float:
    """Mean BP check-node output magnitude for Gaussian inputs of mean ``mean_in``."""
    bp_mean, _ = check_output_magnitude_means(
        mean_in, check_degree, samples=samples, rng=rng
    )
    return bp_mean


def min_sum_check_mean(
    mean_in: float, check_degree: int, *, samples: int = 20000, rng=None
) -> float:
    """Mean (unscaled) sign-min check-node output magnitude for Gaussian inputs."""
    _, min_sum_mean = check_output_magnitude_means(
        mean_in, check_degree, samples=samples, rng=rng
    )
    return min_sum_mean


def optimize_alpha_density_evolution(
    *,
    check_degree: int = 32,
    input_means=(8.0, 10.0, 12.0, 14.0, 16.0),
    candidates=None,
    samples: int = 20000,
    rng=None,
) -> CorrectionFactorResult:
    """Pick alpha so the scaled min-sum mean tracks the BP mean.

    The mismatch of a candidate alpha is the mean absolute difference between
    ``min_sum_mean / alpha`` and ``bp_mean`` across the provided input means.
    The defaults cover the operating range of a converging decoder at the
    paper's working point: the CCSDS code at Eb/N0 ~ 4 dB produces channel
    LLRs with mean ~9, and the bit-to-check means grow from there, which is
    where the correction matters (at very low means the degree-32 check
    output is essentially zero for both kernels).
    """
    rng = ensure_rng(rng if rng is not None else 42)
    if candidates is None:
        candidates = np.round(np.arange(1.0, 2.55, 0.05), 3)
    candidates = tuple(float(a) for a in candidates)
    pairs = [
        check_output_magnitude_means(m, check_degree, samples=samples, rng=rng)
        for m in input_means
    ]
    bp_means = np.array([pair[0] for pair in pairs])
    ms_means = np.array([pair[1] for pair in pairs])
    mismatches = []
    for alpha in candidates:
        mismatches.append(float(np.mean(np.abs(ms_means / alpha - bp_means))))
    best = int(np.argmin(mismatches))
    return CorrectionFactorResult(
        alpha=candidates[best],
        mismatch=mismatches[best],
        candidates=candidates,
        mismatches=tuple(mismatches),
    )


def empirical_mean_mismatch(
    code,
    ebn0_db: float,
    alpha: float,
    *,
    frames: int = 4,
    iterations: int = 3,
    rng=None,
) -> float:
    """Mean |scaled-min-sum - BP| check-output difference on a real code.

    All-zero codewords are transmitted (sufficient for message statistics of
    a symmetric decoder); the bit-to-check messages produced by a few BP
    iterations are fed to both check-node kernels and the output means are
    compared.
    """
    rng = ensure_rng(rng if rng is not None else 7)
    pcm = as_parity_check_matrix(code)
    edges = tanner_graph(pcm)
    n = pcm.block_length
    rate = pcm.dimension / n if hasattr(pcm, "dimension") else 0.875
    sigma = ebn0_to_sigma(ebn0_db, rate)
    modulator = BPSKModulator()
    codewords = np.zeros((frames, n), dtype=np.uint8)
    received = modulator.modulate(codewords) + rng.normal(0.0, sigma, size=(frames, n))
    llrs = channel_llrs(received, sigma)

    bit_to_check = edges.gather_bits(llrs)
    mismatch_total = 0.0
    for _ in range(iterations):
        bp_out = edges.sum_product_extrinsic(bit_to_check)
        ms_out = edges.min_sum_extrinsic(bit_to_check, scale=1.0 / alpha)
        mismatch_total += float(np.mean(np.abs(ms_out - bp_out)))
        # Continue evolving with the BP messages (the reference trajectory).
        bit_to_check, _ = edges.bit_node_update(llrs, bp_out)
    return mismatch_total / iterations


def optimize_alpha_empirical(
    code,
    ebn0_db: float = 4.0,
    *,
    candidates=None,
    frames: int = 4,
    iterations: int = 3,
    rng=None,
) -> CorrectionFactorResult:
    """Empirically pick alpha by matching message means on a concrete code."""
    if candidates is None:
        candidates = np.round(np.arange(1.0, 2.05, 0.05), 3)
    candidates = tuple(float(a) for a in candidates)
    rng = ensure_rng(rng if rng is not None else 11)
    mismatches = tuple(
        empirical_mean_mismatch(
            code, ebn0_db, alpha, frames=frames, iterations=iterations, rng=rng
        )
        for alpha in candidates
    )
    best = int(np.argmin(mismatches))
    return CorrectionFactorResult(
        alpha=candidates[best],
        mismatch=mismatches[best],
        candidates=candidates,
        mismatches=mismatches,
    )
