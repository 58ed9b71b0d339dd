"""Batched decoder kernels: thousands of frames per call, compacted state.

The reference loops — flooding in
:class:`~repro.decode.base.MessagePassingDecoder`, layered in
:class:`~repro.decode.layered.LayeredMinSumDecoder` — keep full-size
``(batch, num_edges)`` state arrays and copy the active rows in and out
every iteration.  That is simple and pinned as the reference, but at large
batch sizes the copies dominate: a frame that converged at iteration 3
still pays two fancy-indexing round trips per remaining iteration.

Each decoder here subclasses its serial reference and replaces only the
loop: the *same kernels* of the shared
:class:`~repro.decode.graph.TannerGraph` (the whole graph for flooding, its
cached per-layer sub-graphs for the layered schedule) run over a
**compacted working set**.  Finished frames are written to the output
arrays and dropped from the working arrays, so the per-iteration cost
shrinks with the number of frames still decoding.  Because every kernel
(both check-node spellings, gathers, elementwise ops) operates row by row,
the numbers computed for a frame are bit-identical whether it is decoded
alone, in a full-array batch, or in a compacted batch — the differential
battery in ``tests/test_decode_batched.py`` pins exactly this.  The
compacted working set shrinks below the padded kernel's row threshold as
frames finish, so one decode may use both spellings.

Registered kinds (each the batched twin of a serial reference):

=====================  ==============================
batched kind           serial reference
=====================  ==============================
``min-sum-batched``    ``min-sum``
``nms-batched``        ``nms``
``offset-batched``     ``offset``
``sum-product-batched``  ``sum-product``
``layered-batched``    ``layered``
=====================  ==============================
"""

from __future__ import annotations

import numpy as np

from repro.decode.base import MessagePassingDecoder
from repro.decode.layered import LayeredMinSumDecoder
from repro.decode.min_sum import (
    DEFAULT_ALPHA,
    MinSumDecoder,
    NormalizedMinSumDecoder,
    OffsetMinSumDecoder,
)
from repro.decode.sum_product import SumProductDecoder
from repro.registry import Param, register_decoder
from repro.utils.bits import hard_decision

__all__ = [
    "SERIAL_EQUIVALENTS",
    "BatchedMinSumDecoder",
    "BatchedNormalizedMinSumDecoder",
    "BatchedOffsetMinSumDecoder",
    "BatchedSumProductDecoder",
    "BatchedLayeredMinSumDecoder",
]

#: Batched registry kind -> the serial kind it must match bit for bit.
#: The differential test battery iterates this mapping.
SERIAL_EQUIVALENTS: dict[str, str] = {
    "min-sum-batched": "min-sum",
    "nms-batched": "nms",
    "offset-batched": "offset",
    "sum-product-batched": "sum-product",
    "layered-batched": "layered",
}


class _CompactingFloodingMixin(MessagePassingDecoder):
    """Flooding loop with a shrinking active-frame working set.

    Overrides only the message-passing loop; validation, conditioning hooks
    and the check-node kernel come from the serial decoder it is mixed
    into, which is what makes bit-identity a structural property rather
    than a re-implementation promise.
    """

    def _run_message_passing(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        graph = self._graph
        posterior_out = llrs.copy()
        iterations = np.zeros(llrs.shape[0], dtype=np.int64)
        # Frames stopped at iteration 0 keep the channel LLRs as posterior.
        converged, stop = self._syndrome_stop(0, llrs)
        frame_ids = np.nonzero(~stop)[0]

        work_llrs = llrs[frame_ids]
        bit_to_check = self._condition_messages(graph.gather_bits(work_llrs))

        for iteration in range(1, self.max_iterations + 1):
            if frame_ids.size == 0:
                break
            check_to_bit = self._condition_messages(
                self._check_node_update(bit_to_check)
            )
            bit_to_check, posterior = graph.bit_node_update(work_llrs, check_to_bit)
            bit_to_check = self._condition_messages(bit_to_check)
            iterations[frame_ids] = iteration

            converged[frame_ids], stop = self._syndrome_stop(iteration, posterior)
            # Compact: write finished frames out, keep only the rest.  The
            # final iteration finishes every remaining frame, so the output
            # arrays are always fully written when the loop ends.
            finished = stop if iteration < self.max_iterations else np.ones_like(stop)
            if finished.any():
                posterior_out[frame_ids[finished]] = posterior[finished]
                keep = ~finished
                frame_ids = frame_ids[keep]
                work_llrs = work_llrs[keep]
                bit_to_check = bit_to_check[keep]

        return hard_decision(posterior_out), posterior_out, converged, iterations


@register_decoder(
    "min-sum-batched",
    params=[],
    summary="Plain min-sum on a compacted frame batch (bit-identical to min-sum)",
)
class BatchedMinSumDecoder(_CompactingFloodingMixin, MinSumDecoder):
    """Batched plain min-sum; bit-identical to :class:`MinSumDecoder`."""


@register_decoder(
    "nms-batched",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor alpha > 1 of equation (2)"),
    ],
    summary="Normalized min-sum on a compacted frame batch (bit-identical to nms)",
)
class BatchedNormalizedMinSumDecoder(_CompactingFloodingMixin, NormalizedMinSumDecoder):
    """Batched normalized min-sum; bit-identical to :class:`NormalizedMinSumDecoder`."""


@register_decoder(
    "offset-batched",
    params=[
        Param("beta", "float", default=0.15,
              doc="constant offset subtracted from the min magnitude"),
    ],
    summary="Offset min-sum on a compacted frame batch (bit-identical to offset)",
)
class BatchedOffsetMinSumDecoder(_CompactingFloodingMixin, OffsetMinSumDecoder):
    """Batched offset min-sum; bit-identical to :class:`OffsetMinSumDecoder`."""


@register_decoder(
    "sum-product-batched",
    params=[],
    summary="Sum-product on a compacted frame batch (bit-identical to sum-product)",
)
class BatchedSumProductDecoder(_CompactingFloodingMixin, SumProductDecoder):
    """Batched sum-product; bit-identical to :class:`SumProductDecoder`."""


@register_decoder(
    "layered-batched",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor of the scaled min-sum rule"),
        Param("num_layers", "int",
              doc="contiguous check groups; omitted uses the QC block rows"),
    ],
    summary="Row-layered min-sum on a compacted frame batch (bit-identical to layered)",
)
class BatchedLayeredMinSumDecoder(LayeredMinSumDecoder):
    """Batched layered min-sum; bit-identical to :class:`LayeredMinSumDecoder`.

    Runs the same per-layer sub-graph kernels on the compacted working
    arrays; each layer's messages are a column slice of ``check_to_bit``
    (a view, no fancy-index copy).  The scatter-add posterior update
    applies its additions in row-major index order, per frame, exactly as
    in the reference loop.
    """

    def _run_message_passing(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        posterior_out = llrs.copy()
        iterations = np.zeros(llrs.shape[0], dtype=np.int64)
        converged, stop = self._syndrome_stop(0, llrs)
        frame_ids = np.nonzero(~stop)[0]

        posterior = llrs[frame_ids].copy()
        check_to_bit = np.zeros(
            (frame_ids.size, self._graph.num_edges), dtype=np.float64
        )

        for iteration in range(1, self.max_iterations + 1):
            if frame_ids.size == 0:
                break
            for layer in self.layers:
                old_c2b = check_to_bit[:, layer.edge_slice]
                bit_to_check = layer.gather_bits(posterior) - old_c2b
                new_c2b = layer.min_sum_extrinsic(bit_to_check, scale=self.scale)
                np.add.at(posterior, (slice(None), layer.edge_bit), new_c2b - old_c2b)
                check_to_bit[:, layer.edge_slice] = new_c2b
            iterations[frame_ids] = iteration

            converged[frame_ids], stop = self._syndrome_stop(iteration, posterior)
            finished = stop if iteration < self.max_iterations else np.ones_like(stop)
            if finished.any():
                posterior_out[frame_ids[finished]] = posterior[finished]
                keep = ~finished
                frame_ids = frame_ids[keep]
                posterior = posterior[keep]
                check_to_bit = check_to_bit[keep]

        return hard_decision(posterior_out), posterior_out, converged, iterations
