"""User specification and concrete design points.

A :class:`DcimSpec` is what the user gives the compiler (Fig. 4, "User
Defined" inputs): the number of stored weights ``Wstore``, a computing
precision, and the design-space bounds the paper applies during
exploration (``N > 4*Bw``, ``L <= 64``, ``H <= 2048``).

A :class:`DesignPoint` is one concrete candidate: an architecture
template plus its parameters ``(N, H, L, k)``.  It knows how to evaluate
its own estimation model and physical metrics.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.core.precision import Precision, parse_precision
from repro.model.floating import fp_macro_cost, fp_weights_stored, validate_fp_params
from repro.model.integer import int_macro_cost, int_weights_stored, validate_int_params
from repro.model.macro import MacroCost
from repro.model.metrics import MacroMetrics, evaluate_macro
from repro.tech.cells import CellLibrary
from repro.tech.technology import Technology

__all__ = ["DcimSpec", "DesignPoint", "INT_ARCH", "FP_ARCH"]

#: Architecture template names.
INT_ARCH = "int-mul"
FP_ARCH = "fp-prealign"


@dataclass(frozen=True)
class DcimSpec:
    """Application requirements handed to the compiler.

    Attributes:
        wstore: number of weights the macro must store.
        precision: computing precision (``Precision`` or name).
        max_l: upper bound on compute-unit sharing ``L`` (paper: 64).
        max_h: upper bound on column height ``H`` (paper: 2048).
        min_n_factor: lower bound factor for columns: ``N > min_n_factor
            * Bw`` (paper: 4), which avoids degenerate narrow arrays.
        max_n: optional upper bound on the column count ``N`` (the paper
            leaves N unbounded above; a physical die budget may not).
    """

    wstore: int
    precision: Precision
    max_l: int = 64
    max_h: int = 2048
    min_n_factor: int = 4
    max_n: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "precision", parse_precision(self.precision))
        for name in ("wstore", "max_l", "max_h", "min_n_factor", "max_n"):
            value = getattr(self, name)
            if value is None and name == "max_n":
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.wstore < 1:
            raise ValueError(f"wstore must be >= 1, got {self.wstore}")
        if self.max_l < 1 or self.max_h < 1 or self.min_n_factor < 0:
            raise ValueError("spec bounds must be positive")
        if self.max_n is not None and self.max_n < self.min_n:
            raise ValueError(
                f"max_n={self.max_n} conflicts with the lower bound N>={self.min_n}"
            )

    @classmethod
    def for_weights(cls, count: int, precision: Precision | str, **bounds) -> "DcimSpec":
        """Spec for an arbitrary weight count, rounded up to a power of two.

        The exponent-encoded design space requires a power-of-two
        ``Wstore``; real layers rarely oblige, so this rounds up (the
        surplus rows/columns are padding the mapper accounts for).
        """
        import math

        if count < 1:
            raise ValueError(f"weight count must be >= 1, got {count}")
        wstore = 1 << max(math.ceil(math.log2(count)), 0)
        return cls(wstore=wstore, precision=precision, **bounds)

    @property
    def arch(self) -> str:
        """Architecture template implied by the precision."""
        return FP_ARCH if self.precision.is_float else INT_ARCH

    @property
    def min_n(self) -> int:
        """Smallest admissible column count ``N``."""
        return self.min_n_factor * self.precision.weight_bits + 1

    @property
    def sram_bits(self) -> int:
        """Required SRAM capacity: ``Wstore * Bw`` bits."""
        return self.wstore * self.precision.weight_bits


@dataclass(frozen=True)
class DesignPoint:
    """One concrete DCIM design: an architecture plus its parameters.

    Attributes:
        precision: the computing precision.
        n: column count.
        h: column height.
        l: weights per compute unit.
        k: input bits per cycle.
    """

    precision: Precision
    n: int
    h: int
    l: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "precision", parse_precision(self.precision))
        self.validate()

    # Structure -----------------------------------------------------------
    @property
    def arch(self) -> str:
        """Architecture template name."""
        return FP_ARCH if self.precision.is_float else INT_ARCH

    @property
    def wstore(self) -> int:
        """Weights stored by this design."""
        p = self.precision
        if p.is_float:
            return fp_weights_stored(self.n, self.h, self.l, p.mantissa_bits)
        return int_weights_stored(self.n, self.h, self.l, p.bits)

    @property
    def sram_bits(self) -> int:
        """SRAM bit-cells in the array."""
        return self.n * self.h * self.l

    def validate(self) -> None:
        """Check architecture constraints; raises ``ValueError`` if broken."""
        p = self.precision
        if p.is_float:
            validate_fp_params(
                self.n, self.h, self.l, self.k, p.exponent_bits, p.mantissa_bits
            )
        else:
            validate_int_params(self.n, self.h, self.l, self.k, p.bits, p.bits)

    def satisfies(self, spec: DcimSpec) -> bool:
        """True when this design meets a spec's storage and bounds."""
        return (
            self.precision == spec.precision
            and self.wstore == spec.wstore
            and self.l <= spec.max_l
            and self.h <= spec.max_h
            and self.n >= spec.min_n
            and (spec.max_n is None or self.n <= spec.max_n)
        )

    # Evaluation -----------------------------------------------------------
    def macro_cost(self, lib: CellLibrary | None = None) -> MacroCost:
        """Evaluate the estimation model (Tables V/VI) for this design."""
        lib = lib or CellLibrary.default()
        p = self.precision
        if p.is_float:
            return fp_macro_cost(
                lib,
                n=self.n,
                h=self.h,
                l=self.l,
                k=self.k,
                be=p.exponent_bits,
                bm=p.mantissa_bits,
            )
        return int_macro_cost(
            lib, n=self.n, h=self.h, l=self.l, k=self.k, bx=p.bits, bw=p.bits
        )

    def metrics(
        self, tech: Technology, lib: CellLibrary | None = None
    ) -> MacroMetrics:
        """Physical metrics of this design on a technology node."""
        return evaluate_macro(self.macro_cost(lib), tech)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.arch} {self.precision.name} N={self.n} H={self.h} "
            f"L={self.l} k={self.k} Wstore={self.wstore}"
        )
