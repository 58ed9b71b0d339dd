"""Fixed-point (quantized) normalized min-sum decoder.

Models the FPGA datapath: channel LLRs and all exchanged messages are
represented in a signed fixed-point format (6 bits total by default, the
width assumed by the architecture's memory sizing), with saturation on
overflow.  Apart from the quantization hooks the algorithm is identical to
:class:`~repro.decode.min_sum.NormalizedMinSumDecoder`, so comparing the two
isolates the implementation loss of the finite word length.
"""

from __future__ import annotations

import numpy as np

from repro.channel.quantize import FixedPointFormat, UniformQuantizer
from repro.decode.min_sum import DEFAULT_ALPHA, NormalizedMinSumDecoder
from repro.registry import Param, register_decoder

__all__ = ["QuantizedMinSumDecoder", "DEFAULT_MESSAGE_FORMAT"]

#: Default message format: 6 bits total, 2 fractional — the word width used
#: by the architecture model's message memories.
DEFAULT_MESSAGE_FORMAT = FixedPointFormat(total_bits=6, fractional_bits=2)


@register_decoder(
    "quantized",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor of the scaled min-sum rule"),
        Param("message_format", "format",
              doc="[total_bits, fractional_bits] of stored messages "
              "(default Q4.2, 6 bits)"),
        Param("channel_format", "format",
              doc="[total_bits, fractional_bits] of quantized channel LLRs; "
              "defaults to the message format"),
    ],
    summary="Fixed-point normalized min-sum modelling the FPGA datapath",
)
class QuantizedMinSumDecoder(NormalizedMinSumDecoder):
    """Normalized min-sum with quantized channel values and messages.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Decoding iterations.
    alpha:
        Normalization factor of the scaled min-sum rule.
    message_format:
        :class:`~repro.channel.quantize.FixedPointFormat` of the stored
        messages (default Q4.2, 6 bits).
    channel_format:
        Format of the quantized channel LLRs; defaults to the message format.
    """

    def __init__(
        self,
        code,
        max_iterations: int = 18,
        *,
        alpha: float = DEFAULT_ALPHA,
        message_format: FixedPointFormat = DEFAULT_MESSAGE_FORMAT,
        channel_format: FixedPointFormat | None = None,
        **kwargs,
    ):
        super().__init__(code, max_iterations, alpha=alpha, **kwargs)
        self.message_format = message_format
        self.channel_format = channel_format or message_format
        self._message_quantizer = UniformQuantizer(self.message_format)
        self._channel_quantizer = UniformQuantizer(self.channel_format)

    def _condition_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        return self._channel_quantizer.quantize(channel_llrs)

    def _condition_messages(self, messages: np.ndarray) -> np.ndarray:
        return self._message_quantizer.quantize(messages)
