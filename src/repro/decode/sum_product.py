"""Sum-product (belief propagation) decoder.

The exact check-node rule (tanh rule) is the reference against which the
min-sum approximations are measured; the correction-factor optimization in
:mod:`repro.analysis.correction_factor` matches the min-sum message means to
the means produced by this decoder.
"""

from __future__ import annotations

import numpy as np

from repro.decode.base import MessagePassingDecoder
from repro.registry import register_decoder

__all__ = ["SumProductDecoder"]


@register_decoder(
    "sum-product",
    params=[],
    summary="Exact belief propagation (tanh rule), the reference algorithm",
)
class SumProductDecoder(MessagePassingDecoder):
    """Belief-propagation decoding with the exact tanh check-node rule."""

    def _check_node_update(self, bit_to_check: np.ndarray) -> np.ndarray:
        return self._graph.sum_product_extrinsic(bit_to_check)
