"""Common machinery of the flooding message-passing decoders.

``MessagePassingDecoder`` implements the four-step iteration described in
Section 2.1 of the paper (bit nodes send, check nodes process, check nodes
send back, bit nodes process) with batching and optional early stopping;
concrete decoders only provide the check-node kernel and, optionally, a
message conditioning hook (used by the fixed-point decoder to quantize).

Two protocols are defined here for the simulator's hot path:

* :class:`FrameBatchDecoder` — the shared ``decode()`` / ``decode_batch()``
  plumbing over a 2-D decoding core, giving every built-in decoder a native
  batched entry point;
* :func:`decode_frames` — the dispatch the Monte-Carlo engine uses: it
  calls ``decode_batch`` when the decoder provides one and otherwise falls
  back to a per-frame loop, stacking the single-frame results into the
  same batch shape.

Iteration accounting convention (shared by the serial and batched paths):
``iterations`` counts the message-passing iterations actually *executed*.
The syndrome of the channel hard decisions is checked before the first
iteration ("iteration 0"), so a received word that is already a codeword
records **zero** iterations under syndrome stopping — its posterior is the
(conditioned) channel LLRs.  :class:`~repro.decode.stopping.FixedIterations`
never stops at iteration 0, preserving the hardware's fixed decoding
period.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.codes.parity_check import ParityCheckMatrix, as_parity_check_matrix
from repro.decode.graph import TannerGraph, tanner_graph
from repro.decode.result import DecodeResult
from repro.decode.stopping import StoppingCriterion, SyndromeStopping
from repro.utils.bits import hard_decision

__all__ = ["FrameBatchDecoder", "MessagePassingDecoder", "decode_frames"]


class FrameBatchDecoder:
    """Shared set-up and single-frame / batched entry points of every decoder.

    The constructor does the set-up every built-in decoder shares: it
    coerces ``code`` (a ``QCLDPCCode``, ``ParityCheckMatrix``,
    ``ShortenedCode`` or dense H matrix) to a parity-check matrix, takes the
    matrix's cached :class:`~repro.decode.graph.TannerGraph` (so every
    decoder on one code holds the same graph object) and validates
    ``max_iterations``.

    Subclasses implement ``_decode_array(llrs)`` on a ``(batch, n)`` float64
    array and get consistent ``decode`` (1-D or 2-D input, squeezed output
    for a single frame) and ``decode_batch`` (strictly ``(batch, n)`` in,
    batch result out) for free.  ``decode_batch`` is the protocol the
    simulator's :func:`decode_frames` dispatch looks for.
    """

    def __init__(self, code: Any, max_iterations: int) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self._pcm = as_parity_check_matrix(code)
        self._graph = tanner_graph(self._pcm)
        self.max_iterations = int(max_iterations)

    @property
    def parity_check(self) -> ParityCheckMatrix:
        """The parity-check matrix being decoded against."""
        return self._pcm

    @property
    def edge_structure(self) -> TannerGraph:
        """The shared Tanner graph of :attr:`parity_check`."""
        return self._graph

    @property
    def block_length(self) -> int:
        """Codeword length ``n``."""
        return self._pcm.block_length

    def _coerce_llrs(self, channel_llrs: ArrayLike) -> np.ndarray:
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.block_length:
            raise ValueError(
                f"expected LLRs with trailing dimension {self.block_length}, "
                f"got shape {llrs.shape}"
            )
        return llrs

    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        """Decode a validated ``(batch, n)`` array (implemented by subclasses)."""
        raise NotImplementedError

    def decode(self, channel_llrs: ArrayLike) -> DecodeResult:
        """Decode a frame or a batch of frames of channel LLRs.

        Parameters
        ----------
        channel_llrs:
            Array of shape ``(n,)`` or ``(batch, n)``; positive values mean
            bit 0 is more likely.

        Returns
        -------
        DecodeResult
            Hard decisions, posterior LLRs, convergence flags and iteration
            counts (squeezed back to 1-D when a single frame was passed).
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        single = llrs.ndim == 1
        if single:
            llrs = llrs[None, :]
        result = self._decode_array(self._coerce_llrs(llrs))
        if single:
            return DecodeResult(
                bits=result.bits[0],
                posterior_llrs=result.posterior_llrs[0],
                converged=result.converged[0],
                iterations=result.iterations[0],
            )
        return result

    def decode_batch(self, channel_llrs: ArrayLike) -> DecodeResult:
        """Decode a strict ``(batch, n)`` array of channel LLRs.

        The batched entry point of the simulator hot path: always returns
        batch-shaped arrays, even for ``batch == 1``.  Bit-identical to
        calling :meth:`decode` on each row separately.
        """
        return self._decode_array(self._coerce_llrs(channel_llrs))


def decode_frames(decoder: Any, channel_llrs: ArrayLike) -> DecodeResult:
    """Decode a ``(batch, n)`` array through ``decoder``, batched if possible.

    The Monte-Carlo engine's dispatch point: decoders exposing a
    ``decode_batch`` method (every built-in decoder, and anything deriving
    from :class:`FrameBatchDecoder`) receive the whole batch in one call;
    anything else — e.g. a third-party decoder registered with only a
    ``decode(llrs)`` method — falls back to a per-frame loop whose
    single-frame results are stacked into the same batch shape.  For
    frame-independent decoders the two paths produce identical counts.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2:
        raise ValueError(f"expected (batch, n) LLRs, got shape {llrs.shape}")
    batch_decode = getattr(decoder, "decode_batch", None)
    if batch_decode is not None:
        return batch_decode(llrs)
    return DecodeResult.stack(
        [decoder.decode(llrs[index]) for index in range(llrs.shape[0])]
    )


class MessagePassingDecoder(FrameBatchDecoder, ABC):
    """Base class for flooding-schedule message-passing decoders.

    Parameters
    ----------
    code:
        A code-like object (``QCLDPCCode``, ``ParityCheckMatrix``,
        ``ShortenedCode`` or a dense H matrix).
    max_iterations:
        Maximum number of decoding iterations (the paper evaluates 10, 18
        and 50).
    stopping:
        A :class:`~repro.decode.stopping.StoppingCriterion`; the default
        stops a frame as soon as its syndrome clears.  Pass
        :class:`~repro.decode.stopping.FixedIterations` to emulate the
        hardware's fixed decoding period.
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        stopping: StoppingCriterion | None = None,
    ) -> None:
        super().__init__(code, max_iterations)
        self.stopping = stopping if stopping is not None else SyndromeStopping()

    @property
    def num_edges(self) -> int:
        """Messages exchanged per direction per iteration."""
        return self._graph.num_edges

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _check_node_update(self, bit_to_check: np.ndarray) -> np.ndarray:
        """Compute check-to-bit messages from bit-to-check messages."""

    def _condition_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Hook: transform the channel LLRs before decoding (identity here)."""
        return channel_llrs

    def _condition_messages(self, messages: np.ndarray) -> np.ndarray:
        """Hook: transform messages after each update (identity here)."""
        return messages

    def _syndrome_stop(
        self, iteration: int, posterior: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Syndrome flags of ``posterior``'s hard decisions and the stop rule.

        Every decoding loop calls this with ``iteration=0`` on the channel
        LLRs before any message passing (a received word that is already a
        codeword records zero iterations under syndrome stopping;
        FixedIterations never stops there, preserving the hardware's fixed
        decoding period), then after each executed iteration.
        """
        syndrome_ok = np.asarray(
            self._graph.syndrome_ok(hard_decision(posterior)), dtype=bool
        )
        stop = np.asarray(self.stopping.should_stop(iteration, syndrome_ok), dtype=bool)
        return syndrome_ok, stop

    # ------------------------------------------------------------------ #
    # Decoding loop
    # ------------------------------------------------------------------ #
    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        llrs = self._condition_channel(llrs)
        bits, posterior, converged, iterations = self._run_message_passing(llrs)
        return DecodeResult(
            bits=bits,
            posterior_llrs=posterior,
            converged=converged,
            iterations=iterations,
        )

    def _run_message_passing(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The flooding iteration on conditioned ``(batch, n)`` LLRs.

        The reference (pinned) implementation: full-size state arrays with
        an active-frame index.  :mod:`repro.decode.batched` overrides this
        with a compacting working set; the per-frame numbers are identical
        because every kernel reduces each row independently.
        """
        batch = llrs.shape[0]
        graph = self._graph

        # Initial bit-to-check messages are the channel LLRs on every edge.
        bit_to_check = self._condition_messages(graph.gather_bits(llrs))
        check_to_bit = np.zeros_like(bit_to_check)
        posterior = llrs.copy()
        converged, stop = self._syndrome_stop(0, llrs)
        active = ~stop
        iterations = np.zeros(batch, dtype=np.int64)

        for iteration in range(1, self.max_iterations + 1):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            new_check_to_bit = self._condition_messages(
                self._check_node_update(bit_to_check[idx])
            )
            check_to_bit[idx] = new_check_to_bit
            new_bit_to_check, new_posterior = graph.bit_node_update(
                llrs[idx], new_check_to_bit
            )
            bit_to_check[idx] = self._condition_messages(new_bit_to_check)
            posterior[idx] = new_posterior
            iterations[idx] = iteration

            converged[idx], stop = self._syndrome_stop(iteration, new_posterior)
            active[idx[stop]] = False

        return hard_decision(posterior), posterior, converged, iterations
