"""Exact symbolic spectra of iterated triangulations.

Each triangulation step transforms the normalized-Laplacian spectrum by a
fixed rule: every retained eigenvalue is halved (the value 2, present only
for bipartite seeds, is dropped), the value 3/2 enters with multiplicity
equal to the previous vertex count, and 1s pad the total up to the new
vertex count.  Unrolling the rule n times yields a descriptor whose size is
O(n + seed size), independent of the iterated graph's exponential vertex
count.  Multiplicities are exact big integers; the exceptional values are
dyadic rationals and carry exactly in floating point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .graph import Graph, analyze, predicted_counts
from .numeric import DEFAULT_EIG_TOL, eigenvalues_sym, normalized_laplacian

DEFAULT_EXPANSION_CAP = 10**6

ZERO_CLAMP = 1e-9  # seed eigenvalues this close to 0 are the kernel value
TWO_CLAMP = 1e-6  # bipartite seeds: the top eigenvalue this close to 2 is the dropped 2
SEED_MATCH_TOL = 1e-9


class ExpansionCapError(RuntimeError):
    """Materializing the spectrum would exceed the configured cap."""


class ExceptionalClass(Enum):
    """Eigenvalue classes injected fresh at every triangulation generation."""

    THREE_HALVES = Fraction(3, 2)
    ONE = Fraction(1)


@dataclass(frozen=True)
class ExceptionalBand:
    """Multiplicity of one exceptional class introduced at one generation."""

    generation: int
    eigenvalue_class: ExceptionalClass
    multiplicity: int


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Symbolic spectrum of the n-fold triangulation of a seed graph.

    ``seed_eigs`` stores the full seed spectrum grouped into (value,
    multiplicity) classes; when ``bipartite_seed`` is set and n >= 1 one copy
    of the eigenvalue 2 is dropped from the seed part (see
    :meth:`effective_seed`).
    """

    n: int
    n0: int
    e0: int
    bipartite_seed: bool
    seed_eigs: tuple[tuple[float, int], ...]
    exceptional: tuple[ExceptionalBand, ...]

    def effective_seed(self) -> tuple[tuple[float, int], ...]:
        """Seed classes actually present at depth n (the 2 removed once)."""
        if self.n == 0 or not self.bipartite_seed:
            return self.seed_eigs
        classes = list(self.seed_eigs)
        top_value, top_mult = classes[-1]
        if top_value != 2.0:
            raise RuntimeError(
                "internal inconsistency: bipartite seed without a pinned eigenvalue 2"
            )
        if top_mult == 1:
            classes.pop()
        else:
            classes[-1] = (top_value, top_mult - 1)
        return tuple(classes)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.effective_seed()) + sum(
            band.multiplicity for band in self.exceptional
        )

    def eigenvalue_classes(self) -> list[tuple[float, int]]:
        """All distinct eigenvalue classes as (value, exact multiplicity).

        Values are scaled by powers of two, which is exact while they stay
        normal doubles; raises OverflowError once a nonzero value would fall
        below the smallest normal double and lose bits.
        """
        classes = [(value, mult, self.n) for value, mult in self.effective_seed()]
        classes += [
            (float(band.eigenvalue_class.value), band.multiplicity, self.n - band.generation)
            for band in self.exceptional
        ]
        out: list[tuple[float, int]] = []
        for base, mult, halvings in classes:
            value = base * 0.5**halvings
            if base != 0.0 and abs(value) < sys.float_info.min:
                raise OverflowError(
                    f"eigenvalue {base!r} / 2^{halvings} is below the smallest normal double"
                )
            out.append((value, mult))
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "n0": self.n0,
            "e0": self.e0,
            "bipartite_seed": self.bipartite_seed,
            "seed_eigs": [[value, mult] for value, mult in self.seed_eigs],
            "exceptional": [
                [band.generation, str(band.eigenvalue_class.value), str(band.multiplicity)]
                for band in self.exceptional
            ],
        }

def new_unit_multiplicity(n0: int, e0: int, g: int) -> int:
    """Count of eigenvalue-1 copies introduced at generation g >= 1 (may be
    negative only for g = 1, where the bipartite correction restores it)."""
    if g < 1:
        raise ValueError("generation must be >= 1")
    return (3 ** (g - 1) + 1) // 2 * e0 - n0


def generation_bands(
    n0: int, e0: int, bipartite_seed: bool, g: int, prev_vertices: int
) -> tuple[ExceptionalBand, ExceptionalBand]:
    """The bands of generation g >= 1: 3/2 once per vertex of the depth-(g-1)
    graph, then 1s (restoring a bipartite seed's dropped 2 at g = 1)."""
    unit = new_unit_multiplicity(n0, e0, g) + int(g == 1 and bipartite_seed)
    if unit < 0:
        raise RuntimeError(
            f"internal inconsistency: negative eigenvalue-1 multiplicity {unit} "
            f"at generation {g} (seed not a valid connected graph?)"
        )
    three_halves = ExceptionalBand(g, ExceptionalClass.THREE_HALVES, prev_vertices)
    return three_halves, ExceptionalBand(g, ExceptionalClass.ONE, unit)


def _check_total(total: int, n0: int, e0: int, n: int) -> None:
    expected, _ = predicted_counts(n0, e0, n)
    if total != expected:
        raise RuntimeError(
            f"internal inconsistency: descriptor holds {total} eigenvalues, expected {expected}"
        )


def _seed_classes(
    values: Sequence[float], bipartite: bool
) -> tuple[tuple[float, int], ...]:
    """Group a seed spectrum into (value, multiplicity) classes.

    Clamps the unique near-zero eigenvalue to exactly 0 and, for bipartite
    seeds, pins the top eigenvalue to exactly 2; floating equality to 2 is
    never trusted on its own.
    """
    vals = sorted(float(v) for v in values)
    if len(vals) < 2:
        raise ValueError("seed spectrum needs at least 2 eigenvalues")
    zeros = sum(1 for v in vals if abs(v) <= ZERO_CLAMP)
    if zeros != 1:
        raise ValueError(
            f"expected exactly one near-zero eigenvalue for a connected seed, found {zeros}"
        )
    clamped = [0.0 if abs(v) <= ZERO_CLAMP else v for v in vals]
    if bipartite:
        if abs(clamped[-1] - 2.0) > TWO_CLAMP:
            raise ValueError(
                f"bipartite seed must carry eigenvalue 2, top value is {clamped[-1]!r}"
            )
        clamped[-1] = 2.0
    groups: list[list[float]] = []
    for v in clamped:
        if groups and v - groups[-1][0] <= SEED_MATCH_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return tuple((math.fsum(grp) / len(grp), len(grp)) for grp in groups)


def build_descriptor(
    seed_eigenvalues: Sequence[float],
    e0: int,
    bipartite_seed: bool,
    n: int,
) -> SpectrumDescriptor:
    """Unroll the per-step spectral rule n times from a seed spectrum.

    Cost is O(n + seed size).  The total multiplicity is checked against the
    exact vertex-count recurrence.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if e0 < 1:
        raise ValueError("seed needs at least one edge")
    n0 = len(seed_eigenvalues)
    seed = _seed_classes(seed_eigenvalues, bipartite_seed)
    bands: list[ExceptionalBand] = []
    prev_vertices = n0
    edges = e0
    for g in range(1, n + 1):
        bands.extend(generation_bands(n0, e0, bipartite_seed, g, prev_vertices))
        prev_vertices += edges
        edges *= 3
    descriptor = SpectrumDescriptor(
        n=n,
        n0=n0,
        e0=e0,
        bipartite_seed=bipartite_seed,
        seed_eigs=seed,
        exceptional=tuple(bands),
    )
    _check_total(descriptor.total_multiplicity, n0, e0, n)
    return descriptor


def descriptor_for(g: Graph, n: int, tol: float = DEFAULT_EIG_TOL) -> SpectrumDescriptor:
    """Convenience constructor: analyze the seed, solve its spectrum, unroll."""
    info = analyze(g)
    eig = eigenvalues_sym(normalized_laplacian(g), tol=tol)
    return build_descriptor(eig.eigenvalues, g.num_edges, info.bipartite, n)


def expand_descriptor(
    d: SpectrumDescriptor, cap: int = DEFAULT_EXPANSION_CAP
) -> list[float]:
    """Materialize the full sorted eigenvalue multiset (size-capped)."""
    total = d.total_multiplicity
    if total > cap:
        raise ExpansionCapError(f"expansion needs {total} values, cap is {cap}")
    values: list[float] = []
    for value, mult in d.eigenvalue_classes():
        values.extend([value] * mult)
    values.sort()
    return values


def reciprocal_sum(d: SpectrumDescriptor) -> tuple[Fraction, float]:
    """Sum of reciprocals of all nonzero eigenvalues, split exact/floating.

    The exceptional part (classes 3/2 and 1) is an exact rational; the seed
    part is floating.  Their sum is the Kemeny constant of the depth-n graph.
    O(n) rational operations; :func:`reciprocal_sums` carries it depth by depth.
    """
    exceptional = Fraction(0)
    for band in d.exceptional:
        weight = band.multiplicity * (1 << (d.n - band.generation))
        exceptional += weight / band.eigenvalue_class.value
    scale = 2.0**d.n
    seed_part = math.fsum(
        mult * scale / value for value, mult in d.effective_seed() if value != 0.0
    )
    return exceptional, seed_part


def reciprocal_sums(
    seed_eigenvalues: Sequence[float], e0: int, bipartite_seed: bool
) -> Iterator[tuple[Fraction, float]]:
    """Endless :func:`reciprocal_sum` at depths 0, 1, 2, ..., carried one
    generation at a time from the depth-0 and depth-1 descriptors: each
    generation doubles the exact part (every eigenvalue halves) and adds its
    two bands; the seed part is the depth-1 value times 2^(n-1), the same
    double as the direct sum.  The band total is checked at every depth.
    """
    yield reciprocal_sum(build_descriptor(seed_eigenvalues, e0, bipartite_seed, 0))
    d = build_descriptor(seed_eigenvalues, e0, bipartite_seed, 1)
    exact, seed_part = reciprocal_sum(d)
    yield exact, seed_part
    total = d.total_multiplicity
    for n in itertools.count(2):
        bands = generation_bands(d.n0, e0, bipartite_seed, n, total)  # total == N_{n-1}
        total += sum(b.multiplicity for b in bands)
        _check_total(total, d.n0, e0, n)
        exact = 2 * exact + sum(b.multiplicity / b.eigenvalue_class.value for b in bands)
        yield exact, math.ldexp(seed_part, n - 1)


def multiplicity_of(
    d: SpectrumDescriptor, value: Union[Fraction, float, int]
) -> int:
    """Exact multiplicity of a queried dyadic value.

    Exceptional classes match exactly in rational arithmetic; seed classes
    within SEED_MATCH_TOL at seed scale (the query times 2^n), zero only 0.
    """
    q = value if isinstance(value, Fraction) else Fraction(value)
    total = 0
    for band in d.exceptional:
        if band.eigenvalue_class.value / (1 << (d.n - band.generation)) == q:
            total += band.multiplicity
    scaled = q * 2**d.n
    for seed_value, mult in d.effective_seed():
        if abs(Fraction(seed_value) - scaled) <= (SEED_MATCH_TOL if seed_value else 0):
            total += mult
    return total
