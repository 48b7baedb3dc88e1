"""Core data model: exact phases, phase gadgets, and ZX polynomials.

Phases are exact rational multiples of pi so that gadget merging, the
zero-phase removal test and the pi-commutation test are exact predicates
rather than float comparisons. Gadget legs are stored as int bitmasks
(bit j set = the gadget has a leg on wire j).

Both are checked once, when built: a gadget has at least one leg and a
polynomial no leg at or past its qubit count, so no later stage checks them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, pi
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Phase:
    """An angle of (numerator/denominator)*pi, normalized into [0, 2pi).

    Stored in lowest terms with a positive denominator, so equal angles
    always compare equal. The integers are normalized directly: the sign
    moves onto the numerator, both are divided by their `math.gcd` and the
    numerator is taken modulo 2 * denominator, which is `Fraction(n, d) % 2`
    without building a Fraction. Addition and negation are modulo 2*pi,
    on the integers too.
    """

    numerator: int
    denominator: int = 1

    def __post_init__(self) -> None:
        n, d = self.numerator, self.denominator
        if d == 0:
            raise ValueError("phase denominator must be nonzero")
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)  # d when n is 0, so zero is stored as 0/1
        d //= g
        object.__setattr__(self, "numerator", n // g % (2 * d))
        object.__setattr__(self, "denominator", d)

    @staticmethod
    def from_fraction(frac: Fraction) -> "Phase":
        return Phase(frac.numerator, frac.denominator)

    @staticmethod
    def parse(text: str) -> "Phase":
        """Parse a phase in pi-units from a fraction string in ASCII, e.g. "1/2"
        or "-3/4"; raises ValueError on anything else, a zero denominator
        included."""
        try:
            return Phase.from_fraction(ascii_number(text.strip(), decimal_fraction, "phase"))
        except ZeroDivisionError:
            raise ValueError(f"phase {text!r} has a zero denominator") from None

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def radians(self) -> float:
        return float(self.as_fraction()) * pi

    def is_zero(self) -> bool:
        return self.numerator == 0

    def is_pi(self) -> bool:
        return self.numerator == 1 and self.denominator == 1

    def __add__(self, other: "Phase") -> "Phase":
        d, e = self.denominator, other.denominator
        return Phase(self.numerator * e + other.numerator * d, d * e)

    def __neg__(self) -> "Phase":
        return Phase(-self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def legs_to_mask(legs: Iterable[int]) -> int:
    """Bitmask of distinct, non-negative leg indices; a repeated leg raises
    ValueError rather than being merged."""
    mask = 0
    for leg in legs:
        if leg < 0:
            raise ValueError(f"negative leg index {leg}")
        bit = 1 << leg
        if mask & bit:
            raise ValueError(f"repeated leg index {leg}")
        mask |= bit
    return mask


def json_int(value, what: str) -> int:
    """A JSON integer as is; a float, bool or string raises instead of being
    rounded into a different polynomial, circuit or architecture."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def ascii_number(text: str, parse: Callable[[str], T] = int, what: str = "number") -> T:
    """`parse(text)` for text in ASCII without underscores, else ValueError.

    int(), float() and Fraction() also read digit-group underscores and any
    Unicode digit ("1_0" as 10, "\u0663" as 3), so a typo would become another
    number; every number the readers take from text comes through here.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"{what} {text!r} is not written in ASCII digits")
    return parse(text)


EXPONENT_DIGITS = 3  # at most, in a decimal exponent that `decimal_fraction` reads
COEFFICIENT_BITS = 65536  # at most, in either part of a QASM angle's running product
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)", re.ASCII)


def decimal_fraction(text: str) -> Fraction:
    """Fraction(text), refusing first (ValueError) a decimal exponent of more
    than EXPONENT_DIGITS digits: Fraction builds 10**exponent, so the 11
    characters "1e999999999" would take hours. Both phase readers, JSON and
    QASM, read their numbers through here."""
    exponent = _EXPONENT.search(text)
    if exponent and len(exponent.group(1)) > EXPONENT_DIGITS:
        raise ValueError(f"number {text!r} has an exponent of more than {EXPONENT_DIGITS} digits")
    return Fraction(text)


def mask_to_legs(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, ascending; a
    negative mask, which has infinitely many set bits, raises ValueError."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    legs = []
    while mask:
        low = mask & -mask
        legs.append(low.bit_length() - 1)
        mask ^= low
    return legs


@dataclass(frozen=True)
class PhaseGadget:
    """A single Z- or X-basis many-qubit rotation.

    `legs` is a nonzero bitmask of the wires the rotation acts on; `phase`
    is the rotation angle. A Z gadget applies exp(-i*phase/2) to basis
    states with even leg parity and exp(+i*phase/2) to odd ones; an X gadget
    is the same conjugated by Hadamards on its legs.
    """

    basis: str
    legs: int
    phase: Phase

    def __post_init__(self) -> None:
        if self.basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {self.basis!r}")
        if self.legs <= 0:
            raise ValueError(f"a phase gadget needs at least one leg, got legs mask {self.legs}")

    @staticmethod
    def z(legs: Iterable[int], phase: Phase) -> "PhaseGadget":
        return PhaseGadget("Z", legs_to_mask(legs), phase)

    @staticmethod
    def x(legs: Iterable[int], phase: Phase) -> "PhaseGadget":
        return PhaseGadget("X", legs_to_mask(legs), phase)

    def leg_list(self) -> list[int]:
        return mask_to_legs(self.legs)

    def with_legs(self, mask: int) -> "PhaseGadget":
        return PhaseGadget(self.basis, mask, self.phase)

    def with_phase(self, phase: Phase) -> "PhaseGadget":
        return PhaseGadget(self.basis, self.legs, phase)

    def __str__(self) -> str:
        return f"{self.basis}{{{','.join(map(str, self.leg_list()))}}}({self.phase})"


def _leg_out_of_range(index: int, legs: list[int], q: int) -> ValueError:
    """The error naming gadget `index` and its smallest leg at or past q."""
    leg = min(w for w in legs if w >= q)
    return ValueError(f"invalid polynomial: gadget {index}: leg {leg} out of range for {q} qubits")


@dataclass(frozen=True)
class ZXPolynomial:
    """An ordered sequence of phase gadgets over a fixed number of wires.

    Sequence order is circuit temporal order: the leftmost gadget is applied
    first. A gadget with a leg at or past `num_qubits` raises ValueError
    naming the first such gadget and its smallest such leg.
    """

    num_qubits: int
    gadgets: tuple[PhaseGadget, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        gadgets = tuple(self.gadgets)
        object.__setattr__(self, "gadgets", gadgets)
        q = self.num_qubits
        for g in gadgets:  # a plain loop is the fastest test for the few gadgets most hold
            if g.legs >> q:
                raise _leg_out_of_range(gadgets.index(g), mask_to_legs(g.legs), q)

    def __len__(self) -> int:
        return len(self.gadgets)

    def __iter__(self) -> Iterator[PhaseGadget]:
        return iter(self.gadgets)

    def to_json_dict(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "gadgets": [
                {"basis": g.basis, "legs": g.leg_list(), "phase": str(g.phase)}
                for g in self.gadgets
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ZXPolynomial":
        try:
            qubits = json_int(data["qubits"], "qubit count")
            gadgets, past = [], None
            for index, entry in enumerate(data.get("gadgets", ())):
                legs = [json_int(leg, "leg") for leg in entry["legs"]]
                if any(leg >= qubits for leg in legs):  # before 1 << leg, for a leg of 10**9 too
                    past = index, legs
                    break
                gadgets.append(PhaseGadget(
                    str(entry["basis"]), legs_to_mask(legs), Phase.parse(str(entry["phase"]))
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        poly = ZXPolynomial(qubits, tuple(gadgets))  # checks the qubit count first
        if past:
            raise _leg_out_of_range(*past, qubits)
        return poly

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "ZXPolynomial":
        return ZXPolynomial.from_json_dict(json.loads(text))
