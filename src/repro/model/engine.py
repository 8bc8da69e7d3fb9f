"""Batch-first cost-evaluation engine.

Every layer of the reproduction — NSGA-II generations, the evaluation
service's executors, ``exhaustive_front``, the DSE baselines, and the
workload sweeps — ultimately needs objective vectors for *many* decoded
parameter sets at once.  The paper's estimation models (Tables V/VI) are
closed-form analytic expressions, so they are trivially array-evaluable:
this module computes area, stage delays, energy-per-pass, cycles- and
ops-per-pass for a whole batch in one call.

Two ideas make the batch path fast:

1. **Component memoisation.**  The per-genome parameters ``(N, H, L, k)``
   draw from tiny discrete sets (powers of two under the spec bounds,
   divisors of the input width), so the component models that contain
   loops — ``adder_tree``, ``mux``, ``barrel_shifter`` — are evaluated
   once per *unique* parameter value and shared across the batch.
2. **Vectorised assembly.**  The remaining per-genome arithmetic is a
   fixed sequence of elementwise operations on numpy arrays.

The array code replicates the *exact* operation order of
:func:`repro.model.integer.int_macro_cost` and
:func:`repro.model.floating.fp_macro_cost`, so the results are
bit-identical to the scalar path: IEEE-754 double arithmetic is
deterministic, and elementwise numpy float64 operations round exactly
like CPython floats.  That guarantee is what keeps persisted
:class:`repro.service.cache.EvaluationCache` entries and per-seed
NSGA-II trajectories unchanged; the scalar functions stay as the
parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.model.components import (
    adder_tree,
    input_buffer,
    int_to_fp_converter,
    prealignment,
    result_fusion,
    shift_accumulator,
)
from repro.model.cost import Cost
from repro.model.floating import fp_macro_cost, validate_fp_params
from repro.model.integer import int_macro_cost, validate_int_params
from repro.model.logic import multiplier_1xn, mux, register_bank
from repro.model.macro import MacroCost
from repro.tech.cells import CellLibrary

import numpy as _np

__all__ = ["BatchCost", "CostEngine"]


@dataclass(frozen=True)
class BatchCost:
    """Columnar cost summary of one evaluated batch.

    The per-genome quantities mirror :class:`repro.model.macro.MacroCost`
    (same normalised NOR-gate units, same definitions), stored as plain
    Python tuples so downstream consumers never see numpy scalar types.

    Attributes:
        arch: architecture template of the batch (``"mixed"`` when a
            point batch spans both templates).
        area / delay / energy_per_pass / cycles_per_pass / ops_per_pass /
            sram_bits: per-genome columns, in input order.
    """

    arch: str
    area: tuple[float, ...]
    delay: tuple[float, ...]
    energy_per_pass: tuple[float, ...]
    cycles_per_pass: tuple[int, ...]
    ops_per_pass: tuple[float, ...]
    sram_bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.area)

    def objectives(self) -> list[tuple[float, float, float, float]]:
        """Minimised ``[A, D, E, -T]`` rows, in input order.

        The throughput negation uses the same scalar expression as
        :func:`repro.dse.problem.objectives_of` over
        :attr:`MacroCost.throughput`, keeping the rows bit-identical to
        the scalar path.
        """
        return [
            (a, d, e, -(o / (c * d)))
            for a, d, e, c, o in zip(
                self.area,
                self.delay,
                self.energy_per_pass,
                self.cycles_per_pass,
                self.ops_per_pass,
            )
        ]

    def throughput(self) -> tuple[float, ...]:
        """Normalised ops per NOR-delay for each genome."""
        return tuple(
            o / (c * d)
            for o, c, d in zip(self.ops_per_pass, self.cycles_per_pass, self.delay)
        )


def _empty_batch(arch: str) -> BatchCost:
    return BatchCost(arch, (), (), (), (), (), ())


class CostEngine:
    """Batch evaluator for the INT and FP macro estimation models.

    One engine instance owns a component-cost memo keyed on the unique
    structural parameters, so repeated batches (e.g. one per NSGA-II
    generation) get cheaper as the design space is covered.

    Args:
        library: normalised standard-cell library shared by all
            evaluations.
    """

    def __init__(self, library: CellLibrary | None = None) -> None:
        self.library = library or CellLibrary.default()
        self._memo: dict[tuple, Cost] = {}

    # Component memoisation ------------------------------------------------
    def _cost(self, key: tuple, factory: Callable[[], Cost]) -> Cost:
        cost = self._memo.get(key)
        if cost is None:
            cost = factory()
            self._memo[key] = cost
        return cost

    def _int_components(
        self, l: int, k: int, h: int, bx: int, bw: int
    ) -> tuple[Cost, Cost, Cost, Cost, Cost, Cost]:
        lib = self.library
        return (
            self._cost(("mux", l), lambda: mux(lib, l)),
            self._cost(("mult", k), lambda: multiplier_1xn(lib, k)),
            self._cost(("tree", h, k), lambda: adder_tree(lib, h, k)),
            self._cost(("accu", bx, h), lambda: shift_accumulator(lib, bx, h)),
            self._cost(("fusion", bw, bx, h), lambda: result_fusion(lib, bw, bx, h)),
            self._cost(("buffer", h, bx), lambda: input_buffer(lib, h, bx)),
        )

    def _fp_components(
        self, l: int, k: int, h: int, be: int, bm: int
    ) -> tuple[Cost, ...]:
        lib = self.library
        return self._int_components(l, k, h, bm, bm) + (
            self._cost(("align", h, be, bm), lambda: prealignment(lib, h, be, bm)),
            self._cost(
                ("convert", bm, h, be), lambda: int_to_fp_converter(lib, bm, bm, h, be)
            ),
            self._cost(("regs", h * be), lambda: register_bank(lib, h * be)),
        )

    def _gather(
        self, keys: Sequence, make: Callable[..., Cost]
    ) -> tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]:
        """Per-genome (area, delay, energy) arrays from memoised costs.

        ``keys`` is one hashable component key per genome; each unique
        key is materialised once.
        """
        index: dict = {}
        costs: list[Cost] = []
        pos = _np.empty(len(keys), dtype=_np.intp)
        for i, key in enumerate(keys):
            j = index.get(key)
            if j is None:
                j = len(costs)
                index[key] = j
                costs.append(make(key))
            pos[i] = j
        area = _np.array([c.area for c in costs])[pos]
        delay = _np.array([c.delay for c in costs])[pos]
        energy = _np.array([c.energy for c in costs])[pos]
        return area, delay, energy

    def _array_component_arrays(self, h, k, l, bx: int, bw: int):
        """Gathered (area, delay, energy) triples for the six components
        both architectures share (the FP mantissa datapath is the integer
        array with ``bx = bw = BM``): select, multiply, adder tree,
        accumulator, fusion, input buffer.
        """
        lib = self.library
        return (
            self._gather(
                list(l), lambda li: self._cost(("mux", li), lambda: mux(lib, li))
            ),
            self._gather(
                list(k),
                lambda ki: self._cost(
                    ("mult", ki), lambda: multiplier_1xn(lib, ki)
                ),
            ),
            self._gather(
                list(zip(h, k)),
                lambda hk: self._cost(
                    ("tree", *hk), lambda: adder_tree(lib, hk[0], hk[1])
                ),
            ),
            self._gather(
                list(h),
                lambda hi: self._cost(
                    ("accu", bx, hi), lambda: shift_accumulator(lib, bx, hi)
                ),
            ),
            self._gather(
                list(h),
                lambda hi: self._cost(
                    ("fusion", bw, bx, hi), lambda: result_fusion(lib, bw, bx, hi)
                ),
            ),
            self._gather(
                list(h),
                lambda hi: self._cost(
                    ("buffer", hi, bx), lambda: input_buffer(lib, hi, bx)
                ),
            ),
        )

    # Integer architecture -------------------------------------------------
    def evaluate_int(
        self,
        n: Sequence[int],
        h: Sequence[int],
        l: Sequence[int],
        k: Sequence[int],
        *,
        bx: int,
        bw: int,
    ) -> BatchCost:
        """Batch of Table V evaluations (``int_macro_cost`` vectorised).

        Args:
            n / h / l / k: equal-length per-genome parameter columns.
            bx / bw: input and weight widths, shared by the batch.
        """
        if not len(n):
            return _empty_batch("int-mul")
        # Parameters draw from tiny discrete sets, so validating the
        # unique tuples (first-occurrence order) covers the whole batch
        # without an O(batch) scalar loop; same errors, same order.
        seen: set[tuple[int, int, int, int]] = set()
        for params in zip(n, h, l, k):
            if params not in seen:
                seen.add(params)
                validate_int_params(*params, bx, bw)
        return self._int_numpy(n, h, l, k, bx, bw)

    def _int_numpy(self, n, h, l, k, bx: int, bw: int) -> BatchCost:
        lib = self.library
        n64 = _np.asarray(n, dtype=_np.int64)
        h64 = _np.asarray(h, dtype=_np.int64)
        l64 = _np.asarray(l, dtype=_np.int64)
        k64 = _np.asarray(k, dtype=_np.int64)

        (
            (sel_a, sel_d, sel_e),
            (mul_a, mul_d, mul_e),
            (tre_a, tre_d, tre_e),
            (acc_a, acc_d, acc_e),
            (fus_a, fus_d, fus_e),
            (buf_a, _, buf_e),
        ) = self._array_component_arrays(h, k, l, bx, bw)

        nh = n64 * h64
        nhf = nh.astype(_np.float64)
        nf = n64.astype(_np.float64)
        hf = h64.astype(_np.float64)
        fuf = (n64 // bw).astype(_np.float64)
        sram_area = (nh * l64).astype(_np.float64) * lib.sram.area

        cycles64 = -((-bx) // k64)
        cyclesf = cycles64.astype(_np.float64)
        per_cycle = nhf * sel_e + nhf * mul_e + nf * tre_e + nf * acc_e
        per_pass = buf_e + fuf * fus_e
        energy = per_cycle * cyclesf + per_pass
        area = (
            sram_area
            + nhf * sel_a
            + nhf * mul_a
            + nf * tre_a
            + nf * acc_a
            + fuf * fus_a
            + buf_a
        )
        delay = _np.maximum(_np.maximum(sel_d + mul_d + tre_d, acc_d), fus_d)
        ops = (2.0 * hf) * (nf / float(bw))
        return BatchCost(
            "int-mul",
            tuple(area.tolist()),
            tuple(delay.tolist()),
            tuple(energy.tolist()),
            tuple(cycles64.tolist()),
            tuple(ops.tolist()),
            tuple((nh * l64).tolist()),
        )

    # Floating-point architecture -----------------------------------------
    def evaluate_fp(
        self,
        n: Sequence[int],
        h: Sequence[int],
        l: Sequence[int],
        k: Sequence[int],
        *,
        be: int,
        bm: int,
    ) -> BatchCost:
        """Batch of Table VI evaluations (``fp_macro_cost`` vectorised).

        Args:
            n / h / l / k: equal-length per-genome parameter columns.
            be / bm: exponent and mantissa datapath widths, shared by
                the batch.
        """
        if not len(n):
            return _empty_batch("fp-prealign")
        seen: set[tuple[int, int, int, int]] = set()
        for params in zip(n, h, l, k):
            if params not in seen:
                seen.add(params)
                validate_fp_params(*params, be, bm)
        return self._fp_numpy(n, h, l, k, be, bm)

    def _fp_numpy(self, n, h, l, k, be: int, bm: int) -> BatchCost:
        lib = self.library
        n64 = _np.asarray(n, dtype=_np.int64)
        h64 = _np.asarray(h, dtype=_np.int64)
        l64 = _np.asarray(l, dtype=_np.int64)
        k64 = _np.asarray(k, dtype=_np.int64)

        (
            (sel_a, sel_d, sel_e),
            (mul_a, mul_d, mul_e),
            (tre_a, tre_d, tre_e),
            (acc_a, acc_d, acc_e),
            (fus_a, fus_d, fus_e),
            (buf_a, _, buf_e),
        ) = self._array_component_arrays(h, k, l, bm, bm)
        ali_a, ali_d, ali_e = self._gather(
            list(h),
            lambda hi: self._cost(
                ("align", hi, be, bm), lambda: prealignment(lib, hi, be, bm)
            ),
        )
        cvt_a, cvt_d, cvt_e = self._gather(
            list(h),
            lambda hi: self._cost(
                ("convert", bm, hi, be),
                lambda: int_to_fp_converter(lib, bm, bm, hi, be),
            ),
        )
        reg_a, _, reg_e = self._gather(
            list(h),
            lambda hi: self._cost(
                ("regs", hi * be), lambda: register_bank(lib, hi * be)
            ),
        )

        nh = n64 * h64
        nhf = nh.astype(_np.float64)
        nf = n64.astype(_np.float64)
        hf = h64.astype(_np.float64)
        fuf = (n64 // bm).astype(_np.float64)
        sram_area = (nh * l64).astype(_np.float64) * lib.sram.area

        cycles64 = -((-bm) // k64)
        cyclesf = cycles64.astype(_np.float64)
        per_cycle = nhf * sel_e + nhf * mul_e + nf * tre_e + nf * acc_e
        per_pass = buf_e + ali_e + reg_e + fuf * fus_e + fuf * cvt_e
        energy = per_cycle * cyclesf + per_pass
        area = (
            sram_area
            + nhf * sel_a
            + nhf * mul_a
            + nf * tre_a
            + nf * acc_a
            + fuf * fus_a
            + buf_a
            + ali_a
            + reg_a
            + fuf * cvt_a
        )
        delay = _np.maximum(
            _np.maximum(
                _np.maximum(_np.maximum(ali_d, sel_d + mul_d + tre_d), acc_d),
                fus_d,
            ),
            cvt_d,
        )
        ops = (2.0 * hf) * (nf / float(bm))
        return BatchCost(
            "fp-prealign",
            tuple(area.tolist()),
            tuple(delay.tolist()),
            tuple(energy.tolist()),
            tuple(cycles64.tolist()),
            tuple(ops.tolist()),
            tuple((nh * l64).tolist()),
        )

    # Design-point front end -----------------------------------------------
    def evaluate_points(self, points: Sequence) -> BatchCost:
        """Batch-evaluate :class:`~repro.core.spec.DesignPoint`-likes.

        Points may mix precisions and architecture templates: the batch
        is grouped per precision, each group runs through the matching
        architecture model, and the columns are scattered back into
        input order.
        """
        if not points:
            return _empty_batch("mixed")
        groups: dict = {}
        for i, point in enumerate(points):
            groups.setdefault(point.precision, []).append(i)
        archs = {point.arch for point in points}
        arch = archs.pop() if len(archs) == 1 else "mixed"
        columns: list[list] = [[None] * len(points) for _ in range(6)]
        for precision, indices in groups.items():
            n = [points[i].n for i in indices]
            h = [points[i].h for i in indices]
            l = [points[i].l for i in indices]
            k = [points[i].k for i in indices]
            if precision.is_float:
                part = self.evaluate_fp(
                    n, h, l, k, be=precision.exponent_bits, bm=precision.mantissa_bits
                )
            else:
                part = self.evaluate_int(
                    n, h, l, k, bx=precision.bits, bw=precision.bits
                )
            rows = (
                part.area,
                part.delay,
                part.energy_per_pass,
                part.cycles_per_pass,
                part.ops_per_pass,
                part.sram_bits,
            )
            for column, row in zip(columns, rows):
                for j, i in enumerate(indices):
                    column[i] = row[j]
        return BatchCost(arch, *(tuple(c) for c in columns))

    def objectives_of_points(self, points: Sequence) -> list[tuple[float, ...]]:
        """``[A, D, E, -T]`` rows for many design points, in input order."""
        return self.evaluate_points(points).objectives()

    # Scalar wrappers -------------------------------------------------------
    def macro_cost(self, point) -> MacroCost:
        """Full :class:`MacroCost` (with breakdown) for one design point.

        Identical to :meth:`DesignPoint.macro_cost`, but the component
        models come from the engine's memo — a batch of one.
        """
        p = point.precision
        if p.is_float:
            return self._fp_macro_cost(
                point.n, point.h, point.l, point.k, p.exponent_bits, p.mantissa_bits
            )
        return self._int_macro_cost(point.n, point.h, point.l, point.k, p.bits, p.bits)

    def macro_costs(self, points: Sequence) -> list[MacroCost]:
        """Full macro costs for many points, sharing the component memo."""
        return [self.macro_cost(point) for point in points]

    def _int_macro_cost(self, n, h, l, k, bx, bw) -> MacroCost:
        return int_macro_cost(
            self.library,
            n=n,
            h=h,
            l=l,
            k=k,
            bx=bx,
            bw=bw,
            components=self._int_components(l, k, h, bx, bw),
        )

    def _fp_macro_cost(self, n, h, l, k, be, bm) -> MacroCost:
        return fp_macro_cost(
            self.library,
            n=n,
            h=h,
            l=l,
            k=k,
            be=be,
            bm=bm,
            components=self._fp_components(l, k, h, be, bm),
        )
