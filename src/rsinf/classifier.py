"""Weight specs over ordered index sets and their annihilator statistics.

A spec is a finite list of regions read left to right: finite runs,
one-sided infinite runs (constant tail after finitely many exceptions,
in either orientation), and two-sided runs.  Concatenating them gives a
weight function on a totally ordered set.  classify() computes the
parameters (r, g, X, Y) of its annihilator ideal, or reports that the
annihilator is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_origin, get_type_hints

from .core import (
    FieldElem, _class_key, _class_order, _decode_json, _field, elem, elems, parse_elems, parse_entry,
)
from .rs_infinite import Axis, _Cut, block_ideal, eventually_constant


class _Region:
    """Coerces a region's runs with elems and its stretches with elem
    when it is built, as ClsParams stores X and Y: a bad value raises
    their TypeError or ValueError there, not in a later reader.  Each
    kind carries its description, set below the four kinds, and a
    subclass inherits its kind's, so it answers as that kind does."""

    def __post_init__(self):
        for name, run in self._stretches:
            value = getattr(self, name)
            coerced = elems(value) if run else elem(value)
            if coerced is not value:
                object.__setattr__(self, name, coerced)


@dataclass(frozen=True)
class Finite(_Region):
    values: tuple[FieldElem, ...]


@dataclass(frozen=True)
class Omega(_Region):
    """Order type of the naturals: exceptions first, then a constant."""

    exceptions: tuple[FieldElem, ...]
    tail: FieldElem


@dataclass(frozen=True)
class OmegaStar(_Region):
    """Reversed naturals: a constant stretch, then exceptions at the end."""

    tail: FieldElem
    exceptions: tuple[FieldElem, ...]


@dataclass(frozen=True)
class Zeta(_Region):
    """Order type of the integers: constant, exceptions, constant."""

    left_tail: FieldElem
    exceptions: tuple[FieldElem, ...]
    right_tail: FieldElem


# Every region kind, once: JSON type name -> class.  Each kind carries
# its type name, its mirror under star_spec (omega and omega_star mirror
# each other, finite and zeta themselves; a mirror's stretches are the
# region's in reverse order) and its stretches: its fields in declaration
# order, which is index order, each paired with whether it is a run of
# exceptions (a tuple) rather than an infinite constant stretch (one
# FieldElem).
_TYPES = {"finite": Finite, "omega": Omega, "omega_star": OmegaStar, "zeta": Zeta}
for (_name, _kind), _mirror in zip(_TYPES.items(), (Finite, OmegaStar, Omega, Zeta)):
    _kind._name, _kind._mirror = _name, _mirror
    _kind._stretches = tuple(
        (name, get_origin(t) is tuple) for name, t in get_type_hints(_kind).items()
    )
del _name, _kind, _mirror


def finite(*values) -> Finite:
    return Finite(values)


def omega(exceptions, tail) -> Omega:
    return Omega(exceptions, tail)


def omega_star(tail, exceptions) -> OmegaStar:
    return OmegaStar(tail, exceptions)


def zeta(left_tail, exceptions, right_tail) -> Zeta:
    return Zeta(left_tail, exceptions, right_tail)


@dataclass(frozen=True)
class WeightSpec:
    regions: tuple[_Region, ...]

    def __post_init__(self):
        """Store the regions as a tuple and refuse a value that is not a
        region."""
        regions = tuple(self.regions)
        for r in regions:
            if not isinstance(r, _Region):
                raise TypeError(f"{type(r).__name__} is not a region type")
        object.__setattr__(self, "regions", regions)
        if all(isinstance(r, Finite) for r in regions):
            raise ValueError("a weight spec needs at least one infinite region")


def weight_spec(*regions) -> WeightSpec:
    return WeightSpec(tuple(regions))


def _regions(spec) -> tuple:
    """The regions of a spec; anything but a WeightSpec is a TypeError."""
    if not isinstance(spec, WeightSpec):
        raise TypeError(f"a spec must be a WeightSpec, not {type(spec).__name__}")
    return spec.regions


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class ZeroAnnihilator:
    reason: str


def validate(spec: WeightSpec):
    """A spec annihilates nontrivially iff all its infinite stretches sit
    in one integrality class."""
    return _validate(list(_cuts(spec)))


def _validate(cuts):
    """validate on the spec's cuts: each infinite stretch is the left
    tail of the cut after it."""
    classes = {_class_key(c.left_tail.anchor): c.left_tail.anchor for c in cuts[1:]}
    if len(classes) > 1:
        # a class's zero prints its name, or past the digit limit its
        # anchor's bit lengths (FieldElem.__repr__)
        names = ", ".join(repr(FieldElem(a, 0)) for a in sorted(classes.values(), key=_class_order))
        return ZeroAnnihilator(
            f"infinite tails fall in different integrality classes: {names}"
        )
    return Valid()


def _cuts(spec: WeightSpec):
    """Yield the raw cut of each block of a spec, left to right.

    The infinite constant stretches cut the regions' runs of exceptions:
    the exceptions before the first stretch are a POS block, those
    between two consecutive ones an ALL block with both as its tails,
    and those after the last one a NEG block.
    """
    left, window = None, ()
    for region in _regions(spec):
        for name, run in region._stretches:
            value = getattr(region, name)
            if run:
                window += value
            else:
                yield _Cut(Axis.POS if left is None else Axis.ALL, window, 1, left, value)
                left, window = value, ()
    yield _Cut(Axis.NEG, window, -1, left, None)


def segment(spec: WeightSpec):
    """Cut the spec at its infinite constant stretches.

    Returns (head, middles, tail): head is everything up to the first
    stretch as a POS sequence, each consecutive pair of stretches plus
    the exceptions between them is an ALL sequence, and the last stretch
    onward is a NEG sequence.
    """
    blocks = [
        eventually_constant(c.axis, c.window, edge=c.edge, left_tail=c.left_tail,
                            right_tail=c.right_tail)
        for c in _cuts(spec)
    ]
    return blocks[0], tuple(blocks[1:-1]), blocks[-1]


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
    cuts = list(_cuts(spec))
    v = _validate(cuts)
    if isinstance(v, ZeroAnnihilator):
        return ZeroIdeal(v.reason)
    # block_ideal reads a raw cut as it reads the canonical block that
    # segment builds from it (see block_ideal)
    rs, gs, xs, ys = zip(*[block_ideal(cut) for cut in cuts])
    return ProperIdeal(sum(rs), sum(gs), xs[0], ys[-1])


def star_spec(spec: WeightSpec) -> WeightSpec:
    """Reverse the index order and negate every value."""
    out = []
    for region in reversed(_regions(spec)):
        stretches = []
        for name, run in reversed(region._stretches):
            value = getattr(region, name)
            if run:
                stretches.append(tuple(v.negate() for v in reversed(value)))
            else:
                stretches.append(value.negate())
        out.append(region._mirror(*stretches))
    return WeightSpec(tuple(out))


_SPEC_SHAPE = "a spec document is an object with a 'regions' list"


def parse_spec(data) -> WeightSpec:
    """Read a spec from a JSON object (or JSON text)."""
    if isinstance(data, str):
        data = _decode_json(data)
    items = _field(data, "regions", _SPEC_SHAPE, list)
    regions = []
    for item in items:
        t = _field(item, "type", "each region is an object with a 'type' field")
        cls = _TYPES.get(t) if isinstance(t, str) else None
        if cls is None:
            raise ValueError(f"unknown region type {t!r}")
        stretches = []
        for name, run in cls._stretches:
            shape = f"a region of type {t!r} needs a {name!r} field"
            if run:
                value = _field(item, name, shape, default=())
                stretches.append(parse_elems(value, f"{name!r}"))
            else:
                stretches.append(parse_entry(_field(item, name, shape), f"{name!r}"))
        regions.append(cls(*stretches))
    return WeightSpec(tuple(regions))


def spec_to_json(spec: WeightSpec) -> dict:
    regions = []
    for region in _regions(spec):
        doc = {"type": region._name}
        for name, run in region._stretches:
            value = getattr(region, name)
            doc[name] = [str(v) for v in value] if run else str(value)
        regions.append(doc)
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
