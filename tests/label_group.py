"""Label classes, the sign-translation group and orbit counting: test oracles.

The sixfold automorphisms acting on the W, V and D labels (see the
``kummer`` module docstring) form the semidirect product of T4
translations with the sign involution, order 512; see
:class:`GroupElement`.  Intersection numbers that only depend on the
coincidence pattern of labels are summed by counting set partitions.

The checker itself sums such numbers with hand-written pattern counts
(``kummer.w_dot_v_total`` and its kin); the tests compare those counts
with the sums here.  Tests import this module; it is not collected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from kum3check.kummer import ALPHAS, ORIGIN, Pt


def double(p: Pt) -> Pt:
    return tuple((2 * x) % 4 for x in p)  # type: ignore[return-value]


def four_torsion() -> tuple[Pt, ...]:
    return tuple(product(range(4), repeat=4))  # type: ignore[return-value]


def add(p: Pt, q: Pt) -> Pt:
    """The group law of T4 = (Z/4)^4."""
    return tuple((x + y) % 4 for x, y in zip(p, q))  # type: ignore[return-value]


def neg(p: Pt) -> Pt:
    return tuple((-x) % 4 for x in p)  # type: ignore[return-value]


def halving_fiber(tau: Pt) -> tuple[Pt, ...]:
    """Points alpha with 2*alpha = tau; a torsor under the two-torsion."""
    if double(tau) != ORIGIN:
        raise ValueError(f"{tau} is not a two-torsion point")
    return tuple(p for p in four_torsion() if double(p) == tau)


@dataclass(frozen=True, order=True)
class WClass:
    tau: Pt


@dataclass(frozen=True, order=True)
class VClass:
    taus: tuple[Pt, Pt]

    @staticmethod
    def of(a: Pt, b: Pt) -> "VClass":
        if a == b:
            raise ValueError("V labels need two distinct two-torsion points")
        return VClass(taus=(min(a, b), max(a, b)))


@dataclass(frozen=True, order=True)
class DClass:
    tau: Pt
    alpha: Pt

    def __post_init__(self):
        if double(self.alpha) != self.tau:
            raise ValueError(f"alpha {self.alpha} does not halve to block {self.tau}")


@dataclass(frozen=True, order=True)
class GroupElement:
    """x -> sign * x + translation on the abelian surface."""

    translation: Pt
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


IDENTITY = GroupElement(ORIGIN, 1)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    t = h.translation if g.sign == 1 else neg(h.translation)
    return GroupElement(add(g.translation, t), g.sign * h.sign)


def invert(g: GroupElement) -> GroupElement:
    t = neg(g.translation) if g.sign == 1 else g.translation
    return GroupElement(t, g.sign)


def apply_to_point(g: GroupElement, p: Pt) -> Pt:
    moved = p if g.sign == 1 else neg(p)
    return add(moved, g.translation)


def full_group() -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(t, s) for s in (1, -1) for t in four_torsion()
    )


def translation_subgroup() -> tuple[GroupElement, ...]:
    return tuple(GroupElement(t, 1) for t in four_torsion())


def sign_two_torsion_subgroup() -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(t, s) for s in (1, -1) for t in ALPHAS
    )


def act(g: GroupElement, label):
    """Conjugation action on W, V and D labels.

    Conjugating the involution with fixed locus W_tau by x -> sx + t
    yields the involution of W_(tau + 2t), for either sign; a D label
    over tau follows its fiber point, alpha -> s*alpha + t.
    """
    shift = double(g.translation)
    if isinstance(label, WClass):
        return WClass(add(label.tau, shift))
    if isinstance(label, VClass):
        a, b = label.taus
        return VClass.of(add(a, shift), add(b, shift))
    if isinstance(label, DClass):
        return DClass(add(label.tau, shift), apply_to_point(g, label.alpha))
    raise TypeError(f"no action on {type(label).__name__}")


def orbit(label, elements: Iterable[GroupElement]) -> frozenset:
    return frozenset(act(g, label) for g in elements)


# ---------------------------------------------------------------------------
# pattern sums

def coincidence_pattern(labels: tuple) -> tuple[int, ...]:
    """First-occurrence renumbering, e.g. (x, y, x) -> (0, 1, 0)."""
    seen: dict = {}
    out = []
    for item in labels:
        if item not in seen:
            seen[item] = len(seen)
        out.append(seen[item])
    return tuple(out)


def _patterns(arity: int) -> Iterable[tuple[int, ...]]:
    # restricted growth strings: entry <= 1 + max of the prefix
    if arity == 0:
        yield ()
        return
    stack = [((0,), 0)]
    while stack:
        prefix, mx = stack.pop()
        if len(prefix) == arity:
            yield prefix
            continue
        for v in range(mx + 2):
            stack.append((prefix + (v,), max(mx, v)))


def orbit_sum(
    n_labels: int,
    arity: int,
    value: Callable[[tuple[int, ...]], Fraction],
) -> Fraction:
    """Sum of value(pattern) over all label tuples, by counting patterns.

    A pattern with k distinct symbols is realized by perm(n, k) tuples.
    """
    total = Fraction(0)
    for pattern in _patterns(arity):
        distinct = (max(pattern) + 1) if pattern else 0
        if distinct > n_labels:
            continue
        total += math.perm(n_labels, distinct) * value(pattern)
    return total


def enumerated_sum(
    n_labels: int,
    arity: int,
    value: Callable[[tuple[int, ...]], Fraction],
) -> Fraction:
    """Brute-force version of orbit_sum, for cross-checking small cases."""
    total = Fraction(0)
    for labels in product(range(n_labels), repeat=arity):
        total += value(coincidence_pattern(labels))
    return total


def triple_value(
    pattern: tuple[int, int, int],
    cube: Fraction,
    pair: Fraction,
    distinct: Fraction,
) -> Fraction:
    blocks = max(pattern) + 1
    if blocks == 1:
        return cube
    if blocks == 2:
        return pair
    return distinct
