"""Random-walk spectrum of the complete multipartite 1-skeleton.

The weighted graph has one part per axis; edges pick two distinct parts and a
uniform vertex in each.  Its walk matrix has exact rational entries, one top
eigenvalue 1, a zero eigenspace of dimension (sum of part sizes - d), and the
remaining d-1 eigenvalues at -1/(d-1), so every non-top eigenvalue is <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_VERTICES = 512


@dataclass(frozen=True)
class SkeletonGraph:
    """Row-stochastic walk matrix over the parts, with exact entries."""

    parts: tuple[int, ...]
    transition: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def d(self) -> int:
        return len(self.parts)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.transition)

    def to_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.transition])


def build_skeleton(parts) -> SkeletonGraph:
    """Walk matrix of the complete multipartite skeleton.

    Off-diagonal block (i, j) is constant 1/((d-1) n_j); diagonal blocks are
    zero.  Needs at least two parts.
    """
    parts = tuple(int(n) for n in parts)
    d = len(parts)
    if d < 2:
        raise ValueError("the skeleton needs at least two parts")
    if any(n < 1 for n in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    n = sum(parts)
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex budget")
    part_of = []
    for i, size in enumerate(parts):
        part_of.extend([i] * size)
    rows = []
    for v in range(n):
        row = []
        for u in range(n):
            i, j = part_of[v], part_of[u]
            row.append(Fraction(0) if i == j else Fraction(1, (d - 1) * parts[j]))
        rows.append(tuple(row))
    return SkeletonGraph(parts, tuple(rows))


@dataclass(frozen=True)
class SpectrumReport:
    parts: tuple[int, ...]
    eigenvalues: tuple[float, ...]     # descending
    count_top: int                     # eigenvalues classified as 1
    count_zero: int
    count_negative: int                # classified as -1/(d-1)
    max_residual: float                # worst gap to the nearest target

    @property
    def d(self) -> int:
        return len(self.parts)

    def second_largest(self) -> float:
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else float("-inf")

    def is_one_sided(self, tolerance: float = 1e-9) -> bool:
        """Every eigenvalue except the top one is at most `tolerance`."""
        return self.second_largest() <= tolerance


def verify_spectrum(g: SkeletonGraph) -> SpectrumReport:
    """Full spectrum of the walk matrix, classified against the three targets.

    The walk is reversible with a stationary measure uniform inside each
    part, so conjugating by sqrt of the measure gives a symmetric matrix with
    the same (real) spectrum; eigenvalues come from that symmetric form.
    """
    if g.n > MAX_VERTICES:
        raise ValueError(f"{g.n} vertices exceeds the {MAX_VERTICES}-vertex budget")
    if any(s != 1 for s in g.row_sums()):
        raise ValueError("transition matrix is not row-stochastic")
    d = g.d
    part_of = []
    for i, size in enumerate(g.parts):
        part_of.extend([i] * size)
    scale = np.array([np.sqrt(g.parts[p]) for p in part_of])
    sym = g.to_float() * scale[None, :] / scale[:, None]
    eigs = np.linalg.eigvalsh(sym)[::-1]
    targets = np.array([1.0, 0.0, -1.0 / (d - 1)])
    gaps = np.abs(eigs[:, None] - targets[None, :])
    nearest = np.argmin(gaps, axis=1)
    residuals = gaps[np.arange(eigs.size), nearest]
    counts = np.bincount(nearest, minlength=3)
    return SpectrumReport(
        parts=g.parts,
        eigenvalues=tuple(float(v) for v in eigs),
        count_top=int(counts[0]),
        count_zero=int(counts[1]),
        count_negative=int(counts[2]),
        max_residual=float(residuals.max()),
    )


def quotient_spectrum(d: int) -> tuple[Fraction, ...]:
    """Nonzero part of the spectrum: {1} plus -1/(d-1) repeated d-1 times."""
    if d < 2:
        raise ValueError("the quotient needs at least two parts")
    return (Fraction(1),) + (Fraction(-1, d - 1),) * (d - 1)


SPECTRUM_CSV_HEADER = "d,parts,count_top,count_zero,count_negative,max_residual"


def spectrum_csv_row(report: SpectrumReport) -> str:
    parts = "x".join(str(n) for n in report.parts)
    return (
        f"{report.d},{parts},{report.count_top},{report.count_zero},"
        f"{report.count_negative},{report.max_residual:.3e}"
    )
