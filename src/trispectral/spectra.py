"""Exact symbolic spectra of iterated triangulations.

Each triangulation step transforms the normalized-Laplacian spectrum by a
fixed rule: every retained eigenvalue is halved (the value 2, present only
for bipartite seeds, is dropped), the value 3/2 enters with multiplicity
equal to the previous vertex count, and 1s pad the total up to the new
vertex count.  Unrolling the rule n times yields a descriptor whose size is
O(n + seed size), independent of the iterated graph's exponential vertex
count.  :func:`generations` steps the rule in one place, carrying the vertex
and edge counts by addition (N += E, E *= 3) with no per-generation power;
the descriptor, its exact-decimal rendering and ``verify_all`` all walk it.
Multiplicities are exact big integers; the exceptional values are dyadic
rationals and carry exactly in floating point.

The descriptor stores the bands as one flat tuple of counts, two per
generation: entry 2g - 2 is generation g's count of 3/2s and entry 2g - 1 its
count of 1s, so entry i belongs to generation i // 2 + 1 and takes its value
from the parity of i.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from typing import Iterator, Sequence

from .graph import CapExceededError, Graph, analyze, count_text
from .numeric import eigenvalues_sym, normalized_laplacian

DEFAULT_EXPANSION_CAP = 10**6

ZERO_CLAMP = 1e-9  # seed eigenvalues this close to 0 are the kernel value
TWO_CLAMP = 1e-6  # bipartite seeds: the top eigenvalue this close to 2 is the dropped 2
SEED_MATCH_TOL = 1e-9

# The two values every generation injects, in band order, and their labels.
EXCEPTIONAL_VALUES = (Fraction(3, 2), Fraction(1))
_EXCEPTIONAL_LABELS = ("3/2", "1")


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Symbolic spectrum of the n-fold triangulation of a seed graph.

    ``seed_eigs`` stores the full seed spectrum grouped into (value,
    multiplicity) classes; when ``bipartite_seed`` is set and n >= 1 one copy
    of the eigenvalue 2 is dropped from the seed part (see
    :meth:`effective_seed`).  ``exceptional`` holds 2n band counts: entry i
    counts the value ``EXCEPTIONAL_VALUES[i % 2]`` (3/2, then 1) introduced
    at generation i // 2 + 1.
    """

    n: int
    n0: int
    e0: int
    bipartite_seed: bool
    seed_eigs: tuple[tuple[float, int], ...]
    exceptional: tuple[int, ...]

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
        return sum(m for _, m in self.effective_seed()) + sum(self.exceptional)

    def eigenvalue_classes(self) -> list[tuple[float, int]]:
        """All distinct eigenvalue classes as (value, exact multiplicity); empty bands are none.

        Values are scaled by powers of two, which is exact while they stay
        normal doubles; raises OverflowError once a nonzero value would fall
        below the smallest normal double and lose bits.
        """
        classes = [(value, mult, self.n) for value, mult in self.effective_seed()]
        classes += [
            (float(EXCEPTIONAL_VALUES[i % 2]), mult, self.n - i // 2 - 1)
            for i, mult in enumerate(self.exceptional)
            if mult
        ]
        out: list[tuple[float, int]] = []
        for base, mult, halvings in classes:
            value = base * 0.5**halvings
            if base != 0.0 and abs(value) < sys.float_info.min:
                raise _subnormal(base, halvings)
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
                [i // 2 + 1, _EXCEPTIONAL_LABELS[i % 2], mult]
                for i, mult in enumerate(self._band_multiplicity_strings())
            ],
        }

    def _band_multiplicity_strings(self) -> list[str]:
        """``str(count)`` for every band count, from :func:`generations` walked
        over exact decimals: linear in the digits, where int-to-str is quadratic."""
        with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])):
            walk = generations(Decimal(self.n0), Decimal(self.e0), self.bipartite_seed)
            return [str(count) for _, _, bands in itertools.islice(walk, self.n) for count in bands]


def generations(
    n0: int, e0: int, bipartite_seed: bool
) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """Endless walk of the triangulation rule from an (n0, e0) seed: yields
    N_g, E_g and generation g's band counts for g = 1, 2, ..., carrying the
    counts by addition (N += E, E *= 3).  The bands are 3/2 once per vertex of
    the depth-(g-1) graph, then 1s, E_{g-1} - N_{g-1} of them (plus a
    bipartite seed's dropped 2, restored at g = 1; negative only for an
    invalid seed).  Ints in, ints out; exact Decimals in, exact Decimals out.
    :func:`build_descriptor` checks the band total, outside the walk."""
    vertices, edges = n0, e0
    for g in itertools.count(1):
        unit = edges - vertices + 1 if g == 1 and bipartite_seed else edges - vertices
        if unit < 0:
            raise RuntimeError(
                f"internal inconsistency: negative eigenvalue-1 multiplicity {unit} "
                f"at generation {g} (seed not a valid connected graph?)"
            )
        bands = (vertices, unit)
        vertices += edges
        edges *= 3
        yield vertices, edges, bands


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

    Cost is O(n + seed size) big-integer additions along :func:`generations`,
    with no power per generation.  The total multiplicity is checked against
    the vertex count the walk carries.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if e0 < 1:
        raise ValueError("seed needs at least one edge")
    n0 = len(seed_eigenvalues)
    seed = _seed_classes(seed_eigenvalues, bipartite_seed)
    bands: list[int] = []
    vertices = n0
    for vertices, _, pair in itertools.islice(generations(n0, e0, bipartite_seed), n):
        bands += pair
    descriptor = SpectrumDescriptor(
        n=n,
        n0=n0,
        e0=e0,
        bipartite_seed=bipartite_seed,
        seed_eigs=seed,
        exceptional=tuple(bands),
    )
    total = descriptor.total_multiplicity
    if total != vertices:
        raise RuntimeError(
            f"internal inconsistency: descriptor holds {total} eigenvalues, expected {vertices}"
        )
    return descriptor


def descriptor_for(g: Graph, n: int) -> SpectrumDescriptor:
    """Convenience constructor: analyze the seed, solve its spectrum, unroll."""
    info = analyze(g)
    eig = eigenvalues_sym(normalized_laplacian(g))
    return build_descriptor(eig.eigenvalues, g.num_edges, info.bipartite, n)


def _check_expansion(n0: int, e0: int, n: int) -> None:
    """Refuse a depth-n spectrum of over DEFAULT_EXPANSION_CAP values, from the counts."""
    need = count_text(n0, e0, n, DEFAULT_EXPANSION_CAP)
    if need is not None:
        raise CapExceededError(f"expansion needs {need} values, cap is {DEFAULT_EXPANSION_CAP}")


def _subnormal(base: float, halvings: int) -> OverflowError:
    return OverflowError(f"eigenvalue {base!r} / 2^{halvings} is below the smallest normal double")


def _check_classes(g: Graph, n: int) -> None:
    """Refuse the depth-n classes past depth 1023, where every nonzero value is subnormal
    (a seed value, at most 2, halved n times; generation 1's 3/2 n - 1 times), from the
    seed's spectrum: the first is its smallest nonzero class left, else that 3/2 (K2)."""
    if n > 1023:
        seed = descriptor_for(g, 1).effective_seed()
        base, halvings = next(((v, n) for v, _ in seed if v), (1.5, n - 1))
        raise _subnormal(base, halvings)


def expand_descriptor(d: SpectrumDescriptor) -> list[float]:
    """Materialize the full sorted eigenvalue multiset (at most
    DEFAULT_EXPANSION_CAP values)."""
    _check_expansion(d.n0, d.e0, d.n)
    values: list[float] = []
    for value, mult in d.eigenvalue_classes():
        values.extend([value] * mult)
    values.sort()
    return values


def reciprocal_sum(d: SpectrumDescriptor) -> tuple[Fraction, float]:
    """Sum of reciprocals of all nonzero eigenvalues, split exact/floating.

    The exceptional part (classes 3/2 and 1) is an exact rational, carried in
    integer thirds (1/(3/2) = 2/3): each generation doubles it, since every
    eigenvalue halves, and adds its two bands.  ``verify_all`` carries the
    same sum along :func:`generations`.  The seed part is floating.  Their sum
    is the Kemeny constant of the depth-n graph.
    """
    thirds = 0
    for three_halves, unit in zip(d.exceptional[::2], d.exceptional[1::2]):
        thirds = 2 * thirds + 2 * three_halves + 3 * unit
    scale = 2.0**d.n
    seed_part = math.fsum(
        mult * scale / value for value, mult in d.effective_seed() if value != 0.0
    )
    return Fraction(thirds, 3), seed_part
