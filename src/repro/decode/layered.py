"""Row-layered normalized min-sum decoder.

In a *layered* (turbo-decoding message passing) schedule the check nodes are
processed in groups ("layers"); after each layer the a-posteriori LLRs are
updated immediately, so later layers in the same iteration already see the
refreshed information.  For the same number of iterations this converges
roughly twice as fast as the flooding schedule — one of the classic design
knobs of LDPC decoder architectures and an ablation point for the paper's
flooding-style base architecture.

A layer is a contiguous range of checks.  For Quasi-Cyclic codes the natural
layers are the block rows of the circulant array (the CCSDS code has two),
but any split works.  Because the shared
:class:`~repro.decode.graph.TannerGraph` sorts its edges by check, a layer's
edges are one contiguous slice of the global edge array, and the graph hands
out each layer as a cached sub-graph of the same type
(:meth:`~repro.decode.graph.TannerGraph.layers`).  The layered schedule
therefore runs the very check-node kernels of the flooding decoders — only
the schedule (:meth:`LayeredMinSumDecoder._run_message_passing`) differs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.decode.min_sum import DEFAULT_ALPHA, NormalizedMinSumDecoder
from repro.decode.stopping import StoppingCriterion
from repro.registry import Param, register_decoder
from repro.utils.bits import hard_decision

__all__ = ["LayeredMinSumDecoder"]


@register_decoder(
    "layered",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor of the scaled min-sum rule"),
        Param("num_layers", "int",
              doc="contiguous check groups; omitted uses the QC block rows"),
    ],
    summary="Row-layered normalized min-sum (faster convergence schedule)",
)
class LayeredMinSumDecoder(NormalizedMinSumDecoder):
    """Layered-schedule normalized min-sum decoder.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Number of full sweeps over all layers.
    alpha:
        Normalization factor of the scaled min-sum rule.
    num_layers:
        Number of contiguous check groups.  ``None`` uses the code's block
        rows when the code is Quasi-Cyclic, otherwise 2.
    stopping:
        Early-stopping policy (syndrome-based by default).
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        alpha: float = DEFAULT_ALPHA,
        num_layers: int | None = None,
        stopping: StoppingCriterion | None = None,
    ) -> None:
        super().__init__(code, max_iterations, alpha=alpha, stopping=stopping)
        if num_layers is None:
            num_layers = getattr(getattr(code, "spec", None), "row_blocks", None) or 2
        self.num_layers = max(1, min(int(num_layers), self._pcm.num_checks))
        self.layers = self._graph.layers(self.num_layers)

    def _run_message_passing(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The layered sweep on ``(batch, n)`` LLRs (full-array reference).

        Overridden by the batched variant with a compacting working set;
        see :class:`repro.decode.batched.BatchedLayeredMinSumDecoder`.
        """
        batch = llrs.shape[0]
        posterior = llrs.copy()
        check_to_bit = np.zeros((batch, self._graph.num_edges), dtype=np.float64)
        converged, stop = self._syndrome_stop(0, llrs)
        active = ~stop
        iterations = np.zeros(batch, dtype=np.int64)

        for iteration in range(1, self.max_iterations + 1):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            for layer in self.layers:
                old_c2b = check_to_bit[idx, layer.edge_slice]
                bit_to_check = layer.gather_bits(posterior[idx]) - old_c2b
                new_c2b = layer.min_sum_extrinsic(bit_to_check, scale=self.scale)
                # Immediate posterior update: subtract the old contribution,
                # add the new one (scatter-add because a bit may appear on
                # several edges of the same layer).
                np.add.at(
                    posterior,
                    (idx[:, None], layer.edge_bit[None, :]),
                    new_c2b - old_c2b,
                )
                check_to_bit[idx, layer.edge_slice] = new_c2b
            iterations[idx] = iteration

            converged[idx], stop = self._syndrome_stop(iteration, posterior[idx])
            active[idx[stop]] = False

        return hard_decision(posterior), posterior, converged, iterations
