"""Weight specs over ordered index sets and their annihilator statistics.

A spec is a finite list of regions read left to right: finite runs,
one-sided infinite runs (constant tail after finitely many exceptions,
in either orientation), and two-sided runs.  Concatenating them gives a
weight function on a totally ordered set.  classify() computes the
parameters (r, g, X, Y) of its annihilator ideal, or reports that the
annihilator is zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .core import FieldElem, elem, parse_elems, parse_entry
from .rs_infinite import (
    Axis,
    EventuallyConstantSeq,
    block_ideal,
    eventually_constant,
)


@dataclass(frozen=True)
class Finite:
    values: tuple[FieldElem, ...]


@dataclass(frozen=True)
class Omega:
    """Order type of the naturals: exceptions first, then a constant."""

    exceptions: tuple[FieldElem, ...]
    tail: FieldElem


@dataclass(frozen=True)
class OmegaStar:
    """Reversed naturals: a constant stretch, then exceptions at the end."""

    tail: FieldElem
    exceptions: tuple[FieldElem, ...]


@dataclass(frozen=True)
class Zeta:
    """Order type of the integers: constant, exceptions, constant."""

    left_tail: FieldElem
    exceptions: tuple[FieldElem, ...]
    right_tail: FieldElem


Region = Union[Finite, Omega, OmegaStar, Zeta]


def finite(*values) -> Finite:
    return Finite(tuple(elem(v) for v in values))


def omega(exceptions, tail) -> Omega:
    return Omega(tuple(elem(v) for v in exceptions), elem(tail))


def omega_star(tail, exceptions) -> OmegaStar:
    return OmegaStar(elem(tail), tuple(elem(v) for v in exceptions))


def zeta(left_tail, exceptions, right_tail) -> Zeta:
    return Zeta(
        elem(left_tail), tuple(elem(v) for v in exceptions), elem(right_tail)
    )


@dataclass(frozen=True)
class WeightSpec:
    regions: tuple[Region, ...]

    def __post_init__(self):
        if all(isinstance(r, Finite) for r in self.regions):
            raise ValueError("a weight spec needs at least one infinite region")


def weight_spec(*regions) -> WeightSpec:
    return WeightSpec(tuple(regions))


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class ZeroAnnihilator:
    reason: str


def validate(spec: WeightSpec):
    """A spec annihilates nontrivially iff all its infinite stretches sit
    in one integrality class."""
    tails = []
    for region in spec.regions:
        if isinstance(region, Omega):
            tails.append(region.tail)
        elif isinstance(region, OmegaStar):
            tails.append(region.tail)
        elif isinstance(region, Zeta):
            tails.extend((region.left_tail, region.right_tail))
    classes = {t.anchor for t in tails}
    if len(classes) > 1:
        names = ", ".join(sorted(str(FieldElem(a, 0)) for a in classes))
        return ZeroAnnihilator(
            f"infinite tails fall in different integrality classes: {names}"
        )
    return Valid()


def _tokens(spec: WeightSpec):
    """Flatten to a stream of ('e', value) exceptions and ('c', value)
    infinite constant stretches."""
    out = []
    for region in spec.regions:
        if isinstance(region, Finite):
            out.extend(("e", v) for v in region.values)
        elif isinstance(region, Omega):
            out.extend(("e", v) for v in region.exceptions)
            out.append(("c", region.tail))
        elif isinstance(region, OmegaStar):
            out.append(("c", region.tail))
            out.extend(("e", v) for v in region.exceptions)
        else:
            out.append(("c", region.left_tail))
            out.extend(("e", v) for v in region.exceptions)
            out.append(("c", region.right_tail))
    return out


def segment(spec: WeightSpec):
    """Cut the spec at its infinite constant stretches.

    Returns (head, middles, tail): head is everything up to the first
    stretch as a POS sequence, each consecutive pair of stretches plus
    the exceptions between them is an ALL sequence, and the last stretch
    onward is a NEG sequence.
    """
    tokens = _tokens(spec)
    consts = [i for i, (kind, _) in enumerate(tokens) if kind == "c"]
    head = eventually_constant(
        Axis.POS,
        [tokens[i][1] for i in range(consts[0])],
        edge=1,
        right_tail=tokens[consts[0]][1],
    )
    middles = []
    for lo, hi in zip(consts, consts[1:]):
        middles.append(
            eventually_constant(
                Axis.ALL,
                [tokens[i][1] for i in range(lo + 1, hi)],
                edge=1,
                left_tail=tokens[lo][1],
                right_tail=tokens[hi][1],
            )
        )
    tail = eventually_constant(
        Axis.NEG,
        [tokens[i][1] for i in range(consts[-1] + 1, len(tokens))],
        edge=-1,
        left_tail=tokens[consts[-1]][1],
    )
    return head, tuple(middles), tail


@dataclass(frozen=True)
class ProperIdeal:
    r: int
    g: int
    X: tuple[int, ...]
    Y: tuple[int, ...]


@dataclass(frozen=True)
class ZeroIdeal:
    reason: str


def classify(spec: WeightSpec):
    """Annihilator parameters of a weight spec.

    The head contributes X and part of r, the tail contributes Y and the
    rest of r, and each middle contributes to r and all of g.
    """
    v = validate(spec)
    if isinstance(v, ZeroAnnihilator):
        return ZeroIdeal(v.reason)
    head, middles, tail = segment(spec)
    r_head, _, x, _ = block_ideal(head)
    r_tail, _, _, y = block_ideal(tail)
    r = r_head + r_tail
    g = 0
    for mid in middles:
        r_mid, g_mid, _, _ = block_ideal(mid)
        r += r_mid
        g += g_mid
    return ProperIdeal(r, g, x, y)


def star_spec(spec: WeightSpec) -> WeightSpec:
    """Reverse the index order and negate every value."""
    out = []
    for region in reversed(spec.regions):
        if isinstance(region, Finite):
            out.append(
                Finite(tuple(v.negate() for v in reversed(region.values)))
            )
        elif isinstance(region, Omega):
            out.append(
                OmegaStar(
                    region.tail.negate(),
                    tuple(v.negate() for v in reversed(region.exceptions)),
                )
            )
        elif isinstance(region, OmegaStar):
            out.append(
                Omega(
                    tuple(v.negate() for v in reversed(region.exceptions)),
                    region.tail.negate(),
                )
            )
        else:
            out.append(
                Zeta(
                    region.right_tail.negate(),
                    tuple(v.negate() for v in reversed(region.exceptions)),
                    region.left_tail.negate(),
                )
            )
    return WeightSpec(tuple(out))


def parse_spec(data) -> WeightSpec:
    """Read a spec from a JSON object (or JSON text)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or not isinstance(data.get("regions"), list):
        raise ValueError("a spec document is an object with a 'regions' list")
    regions = []
    for item in data["regions"]:
        if not isinstance(item, dict) or "type" not in item:
            raise ValueError("each region is an object with a 'type' field")
        t = item["type"]
        if t == "finite":
            regions.append(
                Finite(parse_elems(item.get("values", ()), "'values'"))
            )
        elif t == "omega":
            regions.append(
                Omega(
                    parse_elems(item.get("exceptions", ()), "'exceptions'"),
                    parse_entry(item["tail"], "'tail'"),
                )
            )
        elif t == "omega_star":
            regions.append(
                OmegaStar(
                    parse_entry(item["tail"], "'tail'"),
                    parse_elems(item.get("exceptions", ()), "'exceptions'"),
                )
            )
        elif t == "zeta":
            regions.append(
                Zeta(
                    parse_entry(item["left_tail"], "'left_tail'"),
                    parse_elems(item.get("exceptions", ()), "'exceptions'"),
                    parse_entry(item["right_tail"], "'right_tail'"),
                )
            )
        else:
            raise ValueError(f"unknown region type {t!r}")
    return WeightSpec(tuple(regions))


def spec_to_json(spec: WeightSpec) -> dict:
    regions = []
    for region in spec.regions:
        if isinstance(region, Finite):
            regions.append(
                {"type": "finite", "values": [str(v) for v in region.values]}
            )
        elif isinstance(region, Omega):
            regions.append(
                {
                    "type": "omega",
                    "exceptions": [str(v) for v in region.exceptions],
                    "tail": str(region.tail),
                }
            )
        elif isinstance(region, OmegaStar):
            regions.append(
                {
                    "type": "omega_star",
                    "tail": str(region.tail),
                    "exceptions": [str(v) for v in region.exceptions],
                }
            )
        else:
            regions.append(
                {
                    "type": "zeta",
                    "left_tail": str(region.left_tail),
                    "exceptions": [str(v) for v in region.exceptions],
                    "right_tail": str(region.right_tail),
                }
            )
    return {"regions": regions}


def ideal_to_json(ideal) -> dict:
    if isinstance(ideal, ZeroIdeal):
        return {"ideal": "zero", "reason": ideal.reason}
    return {
        "ideal": {
            "r": ideal.r,
            "g": ideal.g,
            "X": list(ideal.X),
            "Y": list(ideal.Y),
        }
    }
