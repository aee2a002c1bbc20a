"""Core domain types: q-vectors, support decompositions, h*-coefficient vectors.

A q-vector is a weakly increasing tuple of positive integers
q = (q_1 <= ... <= q_n).  It determines the full-dimensional lattice simplex

    conv{e_1, ..., e_n, -(q_1, ..., q_n)}  in  R^n,

which contains the origin in its interior and has normalized volume
1 + q_1 + ... + q_n.  Everything in this module is an immutable value with
exact integer arithmetic.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

# Entries are capped at word size so downstream enumeration loops can assume
# dense integer ranges that fit in fixed-width arithmetic.
ENTRY_BOUND = 2**32 - 1


class ReflexiveLabError(Exception):
    """Base class for domain errors; `code` is the machine-readable name."""

    code = "error"


class InvalidQVector(ReflexiveLabError):
    code = "invalid_qvector"


class NotReflexive(ReflexiveLabError):
    code = "not_reflexive"


class OracleTooLarge(ReflexiveLabError):
    code = "oracle_too_large"


class PayneConstraint(ReflexiveLabError):
    code = "payne_constraint"


class InvalidRVector(ReflexiveLabError):
    code = "invalid_r_vector"


class NoSolution(ReflexiveLabError):
    code = "no_solution"


class GcdNotOne(ReflexiveLabError):
    code = "gcd_not_one"


class OutputNotWritable(ReflexiveLabError):
    code = "output_not_writable"


class InternalInconsistency(ReflexiveLabError):
    """Two exact routes to the same value disagreed; always a bug."""

    code = "internal_inconsistency"


@dataclass(frozen=True)
class QVector:
    """Canonical (sorted) q-vector.  Build via make_qvector."""

    entries: tuple

    def __post_init__(self):
        e = self.entries
        if not isinstance(e, tuple) or len(e) == 0:
            raise InvalidQVector("q-vector needs at least one entry")
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidQVector(f"entry {v!r} is not an integer")
            if v < 1:
                raise InvalidQVector(f"entry {v} is not positive")
            if v > ENTRY_BOUND:
                raise InvalidQVector(f"entry {v} exceeds the word bound {ENTRY_BOUND}")
        if any(a > b for a, b in zip(e, e[1:])):
            raise InvalidQVector("entries must be weakly increasing; use make_qvector")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return format_qvector(self)


def make_qvector(entries: Iterable[int]) -> QVector:
    """Validate and canonicalize (sort ascending) a multiset of entries."""
    return QVector(tuple(sorted(entries)))


def parse_qvector(text: str) -> QVector:
    """Parse the comma-separated text encoding, e.g. '2,2,15,20,20'."""
    parts = [p.strip() for p in text.split(",")]
    if any(p == "" for p in parts):
        raise InvalidQVector(f"malformed q-vector text {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidQVector(f"malformed q-vector text {text!r}") from None
    return make_qvector(values)


def format_qvector(q: QVector) -> str:
    return ",".join(str(v) for v in q.entries)


@dataclass(frozen=True)
class SupportDecomposition:
    """Distinct parts r_1 < ... < r_k with multiplicities x_i >= 1."""

    parts: tuple
    multiplicities: tuple

    def __post_init__(self):
        if len(self.parts) != len(self.multiplicities) or not self.parts:
            raise InvalidQVector("parts and multiplicities must align and be nonempty")
        if any(a >= b for a, b in zip(self.parts, self.parts[1:])):
            raise InvalidQVector("parts must be strictly increasing")
        if any(m < 1 for m in self.multiplicities):
            raise InvalidQVector("multiplicities must be positive")


def support_of(q: QVector) -> SupportDecomposition:
    parts = []
    mults = []
    for v in q.entries:
        if parts and parts[-1] == v:
            mults[-1] += 1
        else:
            parts.append(v)
            mults.append(1)
    return SupportDecomposition(tuple(parts), tuple(mults))


def normalized_volume(q: QVector) -> int:
    """1 + sum(q); equals h*(1) for the simplex of q."""
    return 1 + sum(q.entries)


def is_reflexive(q: QVector) -> bool:
    # q_j | 1 + sum_{i != j} q_i for every j, written via s = 1 + sum(q).
    s = normalized_volume(q)
    return all((s - v) % v == 0 for v in set(q.entries))


CoefficientsLike = Union["HStarPolynomial", Sequence]


@dataclass(frozen=True)
class HStarPolynomial:
    """h*-coefficients indexed from 0, stored untrimmed to length n + 1."""

    coefficients: tuple

    def __post_init__(self):
        c = self.coefficients
        if not isinstance(c, tuple) or len(c) == 0:
            raise InvalidQVector("coefficient vector must be a nonempty tuple")
        if any(not isinstance(v, int) or v < 0 for v in c):
            raise InvalidQVector("coefficients must be nonnegative integers")
        if c[0] != 1:
            raise InvalidQVector("constant coefficient of an h*-vector is 1")

    @property
    def degree(self) -> int:
        return len(trim_zeros(self)) - 1

    def volume(self) -> int:
        """h*(1): the normalized volume of the underlying simplex."""
        return sum(self.coefficients)

    def __str__(self) -> str:
        return format_hstar(self)


def format_hstar(h: CoefficientsLike) -> str:
    coeffs = coefficients_of(h)
    return "[" + ",".join(str(v) for v in coeffs) + "]"


def coefficients_of(h: CoefficientsLike) -> tuple:
    """Accept an HStarPolynomial or a plain coefficient sequence."""
    if isinstance(h, HStarPolynomial):
        return h.coefficients
    return tuple(h)


def trim_zeros(h: CoefficientsLike) -> tuple:
    """The coefficients without trailing zeros; the first entry always stays."""
    c = coefficients_of(h)
    end = len(c)
    while end > 1 and c[end - 1] == 0:
        end -= 1
    return c[:end]
