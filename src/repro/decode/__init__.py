"""Message-passing LDPC decoders.

All decoders operate on channel LLRs (positive = bit 0 more likely), accept
either a single frame or a batch of frames (the batch dimension mirrors the
high-speed architecture's concurrent frames), and return a
:class:`~repro.decode.result.DecodeResult`.

Every decoder is built the same way (:class:`~repro.decode.base.FrameBatchDecoder`):
the code is coerced to a parity-check matrix and the decoder holds that
matrix's one cached :class:`~repro.decode.graph.TannerGraph`.  The graph
is the only graph type and the only home of the min-sum check-node
kernel; the flooding decoders run it on the whole graph, the layered
decoder on per-layer sub-graphs (contiguous check ranges, see
:meth:`~repro.decode.graph.TannerGraph.layers`).

* :class:`~repro.decode.sum_product.SumProductDecoder` — full belief
  propagation (tanh rule), the reference algorithm.
* :class:`~repro.decode.min_sum.MinSumDecoder` — the sign-min simplification.
* :class:`~repro.decode.min_sum.NormalizedMinSumDecoder` — min-sum with the
  paper's scaled correction factor ``1/alpha`` (equation 2).
* :class:`~repro.decode.min_sum.OffsetMinSumDecoder` — offset-corrected
  min-sum.
* :class:`~repro.decode.layered.LayeredMinSumDecoder` — normalized min-sum
  on the row-layered schedule.
* :class:`~repro.decode.fixed_point.QuantizedMinSumDecoder` — normalized
  min-sum with fixed-point messages, modelling the FPGA datapath.
* :class:`~repro.decode.hard_decision.GallagerBDecoder` and
  :class:`~repro.decode.hard_decision.WeightedBitFlippingDecoder` —
  hard-decision baselines.
* the batched twins in :mod:`repro.decode.batched`
  (``min-sum-batched``, ``nms-batched``, ``offset-batched``,
  ``sum-product-batched``, ``layered-batched``) — same kernels over a
  compacted active-frame working set, bit-identical to their serial
  references.

The simulator's hot path dispatches through
:func:`~repro.decode.base.decode_frames`: decoders exposing
``decode_batch`` get the whole ``(batch, n)`` array in one call, anything
else falls back to a per-frame loop.
"""

from repro.decode.base import FrameBatchDecoder, MessagePassingDecoder, decode_frames
from repro.decode.batched import (
    SERIAL_EQUIVALENTS,
    BatchedLayeredMinSumDecoder,
    BatchedMinSumDecoder,
    BatchedNormalizedMinSumDecoder,
    BatchedOffsetMinSumDecoder,
    BatchedSumProductDecoder,
)
from repro.decode.fixed_point import QuantizedMinSumDecoder
from repro.decode.graph import TannerGraph, tanner_graph
from repro.decode.hard_decision import GallagerBDecoder, WeightedBitFlippingDecoder
from repro.decode.layered import LayeredMinSumDecoder
from repro.decode.min_sum import (
    MinSumDecoder,
    NormalizedMinSumDecoder,
    OffsetMinSumDecoder,
)
from repro.decode.result import DecodeResult
from repro.decode.stopping import StoppingCriterion, SyndromeStopping, FixedIterations
from repro.decode.sum_product import SumProductDecoder

__all__ = [
    "TannerGraph",
    "tanner_graph",
    "DecodeResult",
    "FrameBatchDecoder",
    "MessagePassingDecoder",
    "decode_frames",
    "SERIAL_EQUIVALENTS",
    "SumProductDecoder",
    "MinSumDecoder",
    "NormalizedMinSumDecoder",
    "OffsetMinSumDecoder",
    "LayeredMinSumDecoder",
    "QuantizedMinSumDecoder",
    "GallagerBDecoder",
    "WeightedBitFlippingDecoder",
    "BatchedMinSumDecoder",
    "BatchedNormalizedMinSumDecoder",
    "BatchedOffsetMinSumDecoder",
    "BatchedSumProductDecoder",
    "BatchedLayeredMinSumDecoder",
    "StoppingCriterion",
    "SyndromeStopping",
    "FixedIterations",
]
