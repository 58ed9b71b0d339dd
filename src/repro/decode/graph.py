"""The one Tanner-graph type of the decoders, and their check-node kernels.

Message-passing decoders exchange one message per edge per direction.  The
paper emphasises that the CCSDS code has more than 32k messages updated per
iteration, so an efficient layout matters even in software.  Every decoder
working on the same :class:`~repro.codes.parity_check.ParityCheckMatrix`
needs exactly the same index arrays, so they are built **once per matrix**
and shared: :func:`tanner_graph` returns the cached
:class:`TannerGraph` for a matrix (keyed by object identity, weakly
referenced so graphs die with their matrices), and every decoder holds that
object itself.

:class:`TannerGraph` stores the edges of a parity-check matrix in a
CSR-style layout, twice:

* sorted by check node (row-major) — used for the check-node (CN) update,
  where the minimum / sign product over each check's incident edges is
  computed over contiguous segments;
* a permutation to bit-node (column-major) order — used for the bit-node
  (BN) update, where per-bit sums of incoming messages are computed the
  same way.

It is also the only home of the min-sum check-node arithmetic (min1, min2
and the sign product — the paper's check-node processor).  Both schedules
use it: the flooding decoders on the whole graph, the layered decoder on
per-layer sub-graphs.  A layer is a contiguous range of checks, so its edges
are one contiguous slice of the check-sorted edge arrays;
:meth:`TannerGraph.layers` builds each layer once from those slices, as a
``TannerGraph`` of its own, and caches it on the parent graph.

The min-sum kernel has two exact spellings, chosen by batch width
(``_PADDED_KERNEL_MIN_ROWS``): ``reduceat`` segment reductions and a padded
slot-major layout.  Each wins on one side.  On a 2-core Xeon with
NumPy 2.4.6, on the n=1008 scaled twin, one row takes 0.13 ms with
reduceat and 0.31 ms padded, while at 64 rows the padded spelling is
1.3x faster (1.5x on the C2 code).  Serial and compacted small-shard
decoding sit on the narrow side, 64-frame shards on the wide side.

All update helpers operate on arrays of shape ``(batch, num_edges)`` so
that several frames are decoded concurrently, mirroring the high-speed
hardware configuration that stores the messages of different frames in the
same memory word.  The segment reductions act row by row, which is what
makes the batched decoders in :mod:`repro.decode.batched` bit-identical to
per-frame decoding: the values computed for one frame never depend on the
other rows present in the batch.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix

__all__ = ["TannerGraph", "tanner_graph"]

#: Batch width at which the check-node kernels switch from the ``reduceat``
#: segment reductions to the padded-layout kernels.  Narrow batches (and the
#: serial per-frame path, ``batch == 1``) are dispatch-bound: the reduceat
#: spelling issues far fewer NumPy calls and wins.  Wide batches are
#: bandwidth-bound: reduceat's per-segment inner loops (LDPC check degrees
#: are tiny) dominate, and the padded tournament kernels win by a large
#: factor.  Both spellings are exact and produce bit-identical messages —
#: the differential battery in ``tests/test_decode_batched.py`` pins this —
#: so the crossover is a pure performance choice.
_PADDED_KERNEL_MIN_ROWS = 32


class TannerGraph:
    """Precomputed CSR-style edge indexing for a parity-check matrix.

    Attributes
    ----------
    edge_check, edge_bit:
        Row (check) and column (bit) index of every edge, sorted by
        ``(check, bit)`` — the CSR order of the sparse matrix.
    check_ids, check_starts:
        Non-empty check ids and the start offset of each check's contiguous
        edge segment (CSR row pointers without the trailing sentinel).
    bit_order, bit_ids, bit_starts:
        Stable permutation of the edges into bit-sorted (CSC) order and the
        matching segment boundaries.
    edge_check_degree:
        Degree of the check each edge belongs to; degree-1 checks carry no
        extrinsic information, which the update kernels special-case.
    edge_slice:
        Where these edges sit in the parent graph's edge arrays: all of them
        for a matrix's graph, one contiguous check range for a layer (see
        :meth:`layers`).
    """

    def __init__(self, parity_check: ParityCheckMatrix) -> None:
        check_idx, bit_idx = parity_check.edges()
        # The sparse matrix already stores edges sorted by (check, bit).
        self._index(
            parity_check,
            check_idx.astype(np.int64),
            bit_idx.astype(np.int64),
            parity_check.num_checks,
            slice(0, int(check_idx.size)),
        )

    def _index(
        self,
        parity_check: ParityCheckMatrix,
        edge_check: np.ndarray,
        edge_bit: np.ndarray,
        num_checks: int,
        edge_slice: slice,
    ) -> None:
        """Build the segment indexing over check-sorted edge arrays."""
        self._pcm = parity_check
        self.edge_check = edge_check
        self.edge_bit = edge_bit
        self.edge_slice = edge_slice
        self.num_edges = int(self.edge_check.size)
        self.num_checks = num_checks
        self.num_bits = parity_check.block_length

        # Segment boundaries for the check-sorted order (skip empty checks).
        self.check_ids, self.check_starts = np.unique(
            self.edge_check, return_index=True
        )
        # Permutation into bit-sorted order and its segment boundaries.
        self.bit_order = np.argsort(self.edge_bit, kind="stable")
        sorted_bits = self.edge_bit[self.bit_order]
        self.bit_ids, self.bit_starts = np.unique(sorted_bits, return_index=True)
        # Degree of the check each edge belongs to; degree-1 checks have no
        # extrinsic information, which the update kernels special-case.
        check_degrees = np.bincount(self.edge_check, minlength=self.num_checks)
        self.edge_check_degree = check_degrees[self.edge_check]
        # Hot-path fast-path flags.  When every check (bit) owns at least one
        # edge, the ``reduceat`` segment outputs are already aligned with the
        # check (bit) axis and the scatter into a zero/inf-filled array can
        # be skipped entirely; LDPC matrices virtually always qualify.
        self._checks_dense = bool(self.check_ids.size == self.num_checks)
        self._bits_dense = bool(self.bit_ids.size == self.num_bits)
        # Degree-<=1 checks need a masking pass in the CN kernels; skip it
        # for the (usual) graphs that have none.
        self._has_low_degree_checks = bool(
            self.num_edges and int(self.edge_check_degree.min()) <= 1
        )
        # Eligibility for the padded wide-batch kernels: every check must own
        # a segment (dense), degrees must be >= 2 somewhere, and the padded
        # (num_checks, max_degree) layout must not blow the edge array up by
        # more than 4x (pathologically irregular graphs keep reduceat).
        max_degree = int(check_degrees.max()) if self.num_edges else 0
        self._padded_ok = bool(
            self._checks_dense
            and max_degree >= 2
            and self.num_checks * max_degree <= 4 * self.num_edges
        )
        self._pad_layout: (
            tuple[int, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self._layers: dict[int, tuple[TannerGraph, ...]] = {}

    def layers(self, num_layers: int) -> tuple[TannerGraph, ...]:
        """The checks split into ``num_layers`` contiguous sub-graphs (cached).

        Layer ``i`` holds checks ``[b[i], b[i + 1])`` with ``b =
        linspace(0, num_checks, num_layers + 1)``.  Edges are sorted by
        check, so a layer's edges are the contiguous slice
        ``layer.edge_slice`` of this graph's edge arrays: the sub-graph is
        built from those slices (checks renumbered from 0, bits keeping the
        full ``num_bits`` axis so ``gather_bits`` reads a whole posterior)
        and runs the same check-node kernels as the full graph.  Every
        decoder on this graph shares the layers of one ``num_layers``.
        """
        layers = self._layers.get(num_layers)
        if layers is None:
            bounds = np.linspace(0, self.num_checks, num_layers + 1, dtype=np.int64)
            starts = np.searchsorted(self.edge_check, bounds).tolist()
            built: list[TannerGraph] = []
            for i in range(num_layers):
                start, stop = starts[i], starts[i + 1]
                layer = TannerGraph.__new__(TannerGraph)
                layer._index(
                    self._pcm,
                    self.edge_check[start:stop] - bounds[i],
                    self.edge_bit[start:stop],
                    int(bounds[i + 1] - bounds[i]),
                    slice(start, stop),
                )
                built.append(layer)
            layers = self._layers[num_layers] = tuple(built)
        return layers

    # ------------------------------------------------------------------ #
    @property
    def parity_check(self) -> ParityCheckMatrix:
        """The matrix these indices were built from (a layer's whole matrix)."""
        return self._pcm

    # ------------------------------------------------------------------ #
    # Segment reductions
    # ------------------------------------------------------------------ #
    def sum_per_bit(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge values into per-bit totals.

        Parameters
        ----------
        edge_values:
            Array of shape ``(batch, num_edges)`` in check-sorted edge order.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(batch, num_bits)``; bits with no edges get 0.
        """
        values = edge_values[:, self.bit_order]
        reduced = np.add.reduceat(values, self.bit_starts, axis=1)
        if self._bits_dense:
            return reduced
        totals = np.zeros((edge_values.shape[0], self.num_bits), dtype=edge_values.dtype)
        totals[:, self.bit_ids] = reduced
        return totals

    def sum_per_check(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge values into per-check totals (shape ``(batch, num_checks)``)."""
        reduced = np.add.reduceat(edge_values, self.check_starts, axis=1)
        if self._checks_dense:
            return reduced
        totals = np.zeros(
            (edge_values.shape[0], self.num_checks), dtype=edge_values.dtype
        )
        totals[:, self.check_ids] = reduced
        return totals

    def min_per_check(self, edge_values: np.ndarray) -> np.ndarray:
        """Minimum of edge values over each check (shape ``(batch, num_checks)``)."""
        reduced = np.minimum.reduceat(edge_values, self.check_starts, axis=1)
        if self._checks_dense and edge_values.dtype == np.float64:
            return reduced
        totals = np.full(
            (edge_values.shape[0], self.num_checks), np.inf, dtype=np.float64
        )
        totals[:, self.check_ids] = reduced
        return totals

    def gather_bits(self, per_bit_values: np.ndarray) -> np.ndarray:
        """Expand per-bit values onto the edges (check-sorted order)."""
        return per_bit_values[:, self.edge_bit]

    def gather_checks(self, per_check_values: np.ndarray) -> np.ndarray:
        """Expand per-check values onto the edges (check-sorted order)."""
        return per_check_values[:, self.edge_check]

    # ------------------------------------------------------------------ #
    # Private hot-path helpers shared by the check-node kernels
    # ------------------------------------------------------------------ #
    def _edge_signs(self, messages: np.ndarray) -> np.ndarray:
        """Exact ``±1.0`` sign of every message under the ``x < 0`` convention.

        ``np.copysign`` is the fast float-only spelling, but it maps
        ``-0.0`` to ``-1.0`` whereas the decoders' convention
        (``np.where(x < 0, -1.0, 1.0)``) gives zero-magnitude messages a
        ``+1`` sign; the (rare) exact zeros are patched afterwards.
        """
        signs = np.copysign(1.0, messages)
        # Exact sentinel fixing the sign convention for +/-0.0 inputs, not
        # a rounding comparison.
        zeros = messages == 0.0  # repro: noqa[REP106]
        if zeros.any():
            signs[zeros] = 1.0
        return signs

    def _check_sign_product(self, signs: np.ndarray) -> np.ndarray:
        """Product of the ``±1.0`` edge signs over each check.

        Exact: a product of ``±1.0`` floats is ``-1.0`` iff the count of
        negative factors is odd, so this equals the parity-of-negatives
        spelling bit for bit.  Empty checks get the empty product ``1.0``.
        """
        reduced = np.multiply.reduceat(signs, self.check_starts, axis=1)
        if self._checks_dense:
            return reduced
        totals = np.ones((signs.shape[0], self.num_checks), dtype=np.float64)
        totals[:, self.check_ids] = reduced
        return totals

    def _check_counts(self, edge_flags: np.ndarray) -> np.ndarray:
        """Per-check popcount of a boolean edge mask (``(batch, num_checks)``)."""
        counts = np.add.reduceat(
            edge_flags, self.check_starts, axis=1, dtype=np.int64
        )
        if self._checks_dense:
            return counts
        totals = np.zeros((edge_flags.shape[0], self.num_checks), dtype=np.int64)
        totals[:, self.check_ids] = counts
        return totals

    def _padded_check_layout(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Lazily built slot-major ``(max_degree, num_checks)`` edge layout.

        ``pad_edge[s * num_checks + c]`` is the edge id sitting in slot
        ``s`` of check ``c`` (or the sentinel ``num_edges`` for padding
        slots), ``pad_bit`` the corresponding bit id (sentinel
        ``num_bits``), and ``edge_slot[e]`` the flat slot an edge occupies —
        the inverse mapping used to scatter padded results back to edge
        order with a plain gather.  Gathering from an edge/bit array
        extended by one sentinel column turns every per-check segment
        reduction into a short unrolled loop over the slot axis —
        O(max_degree) NumPy calls on contiguous ``(batch, num_checks)``
        slices instead of reduceat's per-segment inner loops.  Only built
        for dense graphs (``_padded_ok``).
        """
        if self._pad_layout is None:
            width = int(self.edge_check_degree.max())
            within = np.arange(self.num_edges) - self.check_starts[self.edge_check]
            edge_slot = within * self.num_checks + self.edge_check
            pad_edge = np.full(
                width * self.num_checks, self.num_edges, dtype=np.int64
            )
            pad_edge[edge_slot] = np.arange(self.num_edges)
            pad_bit = np.full(width * self.num_checks, self.num_bits, dtype=np.int64)
            pad_bit[edge_slot] = self.edge_bit
            self._pad_layout = (width, pad_edge, pad_bit, edge_slot)
        return self._pad_layout

    def _other_min_per_edge(self, magnitudes: np.ndarray) -> np.ndarray:
        """Minimum magnitude over each edge's check *excluding the edge*.

        The min-sum extrinsic magnitude, narrow-batch spelling: smallest and
        second-smallest per check via reduceat, then a per-edge select.
        ``min2`` counts multiplicity — when the minimum is achieved by
        several edges the second minimum *is* the minimum.  Edges of
        degree-1 checks see the empty minimum ``inf`` (the caller masks
        them).
        """
        min1 = self.min_per_check(magnitudes)
        min1_on_edges = self.gather_checks(min1)
        is_min = magnitudes == min1_on_edges
        masked = magnitudes.copy()
        masked[is_min] = np.inf
        min2 = self.min_per_check(masked)
        min2 = np.where(self._check_counts(is_min) > 1, min1, min2)
        return np.where(is_min, self.gather_checks(min2), min1_on_edges)

    def _min_sum_extrinsic_padded(
        self, bit_to_check: np.ndarray, scale: float, offset: float
    ) -> np.ndarray:
        """Wide-batch min-sum check-node update, fully in the padded layout.

        One gather brings the messages into ``(batch, max_degree,
        num_checks)`` slot form; signs, the per-check sign product, and the
        exclude-self minimum (a prefix/suffix min sweep over the slot axis)
        are all computed on contiguous ``(batch, num_checks)`` slices; one
        gather brings the result back to edge order.  Every step is an exact
        operation (``min``/``max``, products of ``±1.0``, single-rounding
        scale/offset in the same order as the narrow path), so the messages
        are bit-identical to the reduceat spelling — the differential
        battery pins this.
        """
        rows = bit_to_check.shape[0]
        width, pad_edge, _, edge_slot = self._padded_check_layout()
        extended = np.empty((rows, self.num_edges + 1), dtype=np.float64)
        extended[:, :-1] = bit_to_check
        extended[:, -1] = np.inf
        padded = extended[:, pad_edge].reshape(rows, width, self.num_checks)
        magnitudes = np.abs(padded)
        # The inf padding slots get sign +1.0, the product's identity.
        signs = self._edge_signs(padded)
        # Per-check sign product, slot by slot (±1.0 products are exact).
        total_sign = signs[:, 0, :].copy()
        for slot in range(1, width):
            np.multiply(total_sign, signs[:, slot, :], out=total_sign)
        # Exclude-self minimum: a forward prefix-min pass, then a backward
        # pass folding in the suffix mins.
        extrinsic = np.empty_like(magnitudes)
        extrinsic[:, 0, :] = np.inf
        for slot in range(1, width):
            np.minimum(
                extrinsic[:, slot - 1, :],
                magnitudes[:, slot - 1, :],
                out=extrinsic[:, slot, :],
            )
        suffix = np.full((rows, self.num_checks), np.inf)
        for slot in range(width - 1, 0, -1):
            np.minimum(extrinsic[:, slot, :], suffix, out=extrinsic[:, slot, :])
            np.minimum(suffix, magnitudes[:, slot, :], out=suffix)
        extrinsic[:, 0, :] = suffix
        flat = extrinsic.reshape(rows, width * self.num_checks)
        if self._has_low_degree_checks:
            flat[:, edge_slot[self.edge_check_degree <= 1]] = 0.0
        if offset:
            np.subtract(extrinsic, offset, out=extrinsic)
            np.maximum(extrinsic, 0.0, out=extrinsic)
        # scale is exactly 1.0 when the caller passed the default; the
        # comparison skips a multiply, it does not gate numerics.
        if scale != 1.0:  # repro: noqa[REP106]
            np.multiply(extrinsic, scale, out=extrinsic)
        # (total_sign * sign) * magnitude and (sign * magnitude) * total_sign
        # are bit-identical: multiplying by ±1.0 is an exact sign flip.
        np.multiply(extrinsic, signs, out=extrinsic)
        np.multiply(extrinsic, total_sign[:, None, :], out=extrinsic)
        return flat[:, edge_slot]

    # ------------------------------------------------------------------ #
    # Check-node update kernels
    # ------------------------------------------------------------------ #
    def min_sum_extrinsic(
        self,
        bit_to_check: np.ndarray,
        *,
        scale: float = 1.0,
        offset: float = 0.0,
    ) -> np.ndarray:
        """Min-sum check-node update with optional normalization and offset.

        Implements the paper's equation (2): the extrinsic message on each
        edge is the product of the signs of the *other* incoming messages
        times the minimum of their magnitudes, scaled by ``scale``
        (``1/alpha`` in the paper's notation) or reduced by ``offset``.

        Parameters
        ----------
        bit_to_check:
            Incoming messages, shape ``(batch, num_edges)``.
        scale:
            Multiplicative correction (normalized min-sum); 1.0 disables it.
        offset:
            Subtractive correction (offset min-sum); 0.0 disables it.

        Returns
        -------
        numpy.ndarray
            Outgoing check-to-bit messages, shape ``(batch, num_edges)``.
        """
        if self._padded_ok and bit_to_check.shape[0] >= _PADDED_KERNEL_MIN_ROWS:
            # Wide batches: the fused padded-layout kernel (bit-identical).
            return self._min_sum_extrinsic_padded(bit_to_check, scale, offset)
        magnitudes = np.abs(bit_to_check)
        signs = self._edge_signs(bit_to_check)
        # Total sign per check: the product of the incoming edge signs.
        total_sign = self._check_sign_product(signs)

        # Every edge sees the minimum of the *other* incoming magnitudes.
        extrinsic_mag = self._other_min_per_edge(magnitudes)
        # A degree-1 check has no "other" incoming edges, hence no extrinsic
        # information (its minimum over an empty set would be infinite).
        if self._has_low_degree_checks:
            extrinsic_mag[:, self.edge_check_degree <= 1] = 0.0
        if offset:
            np.subtract(extrinsic_mag, offset, out=extrinsic_mag)
            np.maximum(extrinsic_mag, 0.0, out=extrinsic_mag)
        # scale is exactly 1.0 when the caller passed the default; the
        # comparison skips a multiply, it does not gate numerics.
        if scale != 1.0:  # repro: noqa[REP106]
            np.multiply(extrinsic_mag, scale, out=extrinsic_mag)
        return self.gather_checks(total_sign) * signs * extrinsic_mag

    def sum_product_extrinsic(self, bit_to_check: np.ndarray) -> np.ndarray:
        """Exact belief-propagation check-node update (tanh rule).

        Computed in the log domain for numerical stability:
        ``|out| = 2 * atanh( exp( sum(log|tanh(in/2)|) - log|tanh(in_e/2)| ) )``
        with the sign handled separately, and magnitudes clipped to avoid
        infinities at the domain edges.
        """
        clip = 30.0
        messages = np.clip(bit_to_check, -clip, clip)
        signs = self._edge_signs(messages)
        # Total sign per check: the product of the incoming edge signs.
        total_sign = self._check_sign_product(signs)

        # log|tanh(x/2)| is <= 0; clip the argument away from 0 to keep the
        # logarithm finite.  The chain reuses one buffer: every step consumes
        # exactly the previous step's value, so the numbers match the
        # fresh-array spelling.
        log_tanh = np.abs(messages)
        np.divide(log_tanh, 2.0, out=log_tanh)
        np.tanh(log_tanh, out=log_tanh)
        np.clip(log_tanh, 1e-12, 1.0 - 1e-12, out=log_tanh)
        np.log(log_tanh, out=log_tanh)
        totals = self.sum_per_check(log_tanh)
        extrinsic_mag = self.gather_checks(totals)
        np.subtract(extrinsic_mag, log_tanh, out=extrinsic_mag)
        np.exp(extrinsic_mag, out=extrinsic_mag)
        np.clip(extrinsic_mag, 0.0, 1.0 - 1e-12, out=extrinsic_mag)
        np.arctanh(extrinsic_mag, out=extrinsic_mag)
        np.multiply(extrinsic_mag, 2.0, out=extrinsic_mag)
        # Degree-1 checks carry no extrinsic information (see min_sum_extrinsic).
        if self._has_low_degree_checks:
            extrinsic_mag[:, self.edge_check_degree <= 1] = 0.0
        return self.gather_checks(total_sign) * signs * extrinsic_mag

    # ------------------------------------------------------------------ #
    # Bit-node update and decisions
    # ------------------------------------------------------------------ #
    def bit_node_update(
        self, channel_llrs: np.ndarray, check_to_bit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bit-node update (paper equation 3).

        Returns
        -------
        (bit_to_check, posterior):
            ``bit_to_check`` are the new edge messages (incoming LLR plus the
            sum of the other checks' messages); ``posterior`` is the
            a-posteriori LLR per bit (incoming LLR plus all check messages),
            used for hard decisions and early stopping.
        """
        totals = self.sum_per_bit(check_to_bit)
        posterior = channel_llrs + totals
        bit_to_check = self.gather_bits(posterior)
        np.subtract(bit_to_check, check_to_bit, out=bit_to_check)
        return bit_to_check, posterior

    def syndrome_ok(self, hard_bits: np.ndarray) -> np.ndarray:
        """Whether each frame of hard decisions satisfies every parity check.

        Computed from the graph's own edge arrays: the syndrome bit of a
        check is the XOR of the hard decisions on its incident edges, so a
        gather plus one XOR segment reduction replaces the sparse
        matrix-vector product (whose ``np.add.at`` scatter dominated the
        batched profile).  Exact 0/1 arithmetic — the flags are identical to
        ``ParityCheckMatrix.is_codeword``, which stays the pinned authority
        (and the fallback for 1-D words and empty graphs).
        """
        bits = np.asarray(hard_bits)
        if bits.ndim != 2 or self.num_edges == 0:
            return self._pcm.is_codeword(bits)
        if bits.dtype != np.bool_:
            bits = bits != 0
        if self._padded_ok and bits.shape[0] >= _PADDED_KERNEL_MIN_ROWS:
            # Wide batches: XOR over the padded slot axis (sentinel False is
            # the XOR identity) — exact, and much cheaper than reduceat's
            # per-segment loops over the tiny check degrees.
            width, _, pad_bit, _ = self._padded_check_layout()
            rows = bits.shape[0]
            extended = np.empty((rows, self.num_bits + 1), dtype=np.bool_)
            extended[:, :-1] = bits
            extended[:, -1] = False
            padded = extended[:, pad_bit].reshape(rows, width, self.num_checks)
            parity = padded[:, 0, :].copy()
            for slot in range(1, width):
                np.bitwise_xor(parity, padded[:, slot, :], out=parity)
            return ~parity.any(axis=1)
        parity = np.bitwise_xor.reduceat(
            bits[:, self.edge_bit], self.check_starts, axis=1
        )
        # Empty checks (no edges) have an all-zero syndrome by definition,
        # so reducing over the non-empty segments only is enough.
        return ~parity.any(axis=1)


#: One graph per live matrix.  Keyed by matrix *identity*: ParityCheckMatrix
#: objects are immutable in practice and the QC codes cache their expansion,
#: so every decoder built on the same code object shares one graph.  Weak
#: references keep the cache from pinning matrices in memory.
_GRAPH_CACHE: "weakref.WeakKeyDictionary[ParityCheckMatrix, TannerGraph]" = (
    weakref.WeakKeyDictionary()
)


def tanner_graph(parity_check: ParityCheckMatrix) -> TannerGraph:
    """The shared :class:`TannerGraph` of ``parity_check`` (built once)."""
    graph = _GRAPH_CACHE.get(parity_check)
    if graph is None:
        graph = TannerGraph(parity_check)
        _GRAPH_CACHE[parity_check] = graph
    return graph
