"""JSON schema for configurations and generator specs, and the JSON output format.

Configuration schema (version 1):

    {
      "schema_version": 1,
      "n": 2,
      "cube": {"min_corner": [-5.0, -5.0], "side": 10.0},
      "families": [
        {"axis": 0, "radius": 1.0, "members": [
          {"anchor": [...], "dir": [...], "weight": 1.0},
          {"polyline": {"breakpoints": [...], "values": [[...], ...],
                        "lip": 0.05}, "weight": 1.0}
        ]}
      ]
    }

Members carry either ``anchor``+``dir`` (a ``Line``) or ``polyline`` (a
``LipschitzCurve``): the core of a tube whose radius is the family's one
``radius``.  Numbers are written with full repr precision, so files
round-trip bit-exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from numbers import Integral, Real
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evaluator import FamilyMember, TubeFamily
from .generators import (
    AxisParallel,
    GeneralAngle,
    GenSpec,
    Lipschitz,
    Regime,
    SmallAngle,
    Weighted,
)
from .geometry import Cap, Cube, Direction, Line, LipschitzCurve
from .loomis_whitney import Box, ProjectionFunction

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Configuration:
    n: int
    cube: Cube
    families: tuple
    direction_sets: tuple | None = None  # optional per-axis caps (wedge runs)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a string or a fractional number is bad input."""
    integral = isinstance(value, Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """``value`` as a float; a bool, a string, a non-finite number or an
    integer too large for a float is bad input."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValidationError(
            f"{name} must be a finite number, got an integer of {len(str(abs(value)))} digits"
        ) from None
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return x


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array.

    An element that ``_number`` rejects (a bool, a string, a non-finite
    number) or a ragged array is bad input, named by its field.
    """
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be an array, got {values!r}")
    try:
        if all(type(v) in (int, float) and math.isfinite(v) for v in values):
            return np.array(values, dtype=float)  # the common flat case, checked without names
    except OverflowError:
        pass  # an integer too large for a float: the element's own check names it
    rows = [
        _numbers(v, f"{name}[{i}]") if isinstance(v, (list, tuple)) else _number(v, f"{name}[{i}]")
        for i, v in enumerate(values)
    ]
    _require(len({np.shape(r) for r in rows}) <= 1, f"{name} must not be a ragged array")
    return np.array(rows, dtype=float)


def _grid(values, name: str) -> np.ndarray:
    """``values``, a nested array of finite numbers, as a float array.

    One pass collects the element types, which costs about what the
    conversion does (a ``_number`` call per element costs five times more).
    A bool, a string, a ragged array, a non-finite number or an integer too
    large for a float is bad input, named by its field.
    """
    message = f"{name} must be an array of finite numbers"
    try:
        grid = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message) from None
    leaves = [values]
    for _ in range(grid.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    kinds = set(map(type, leaves))
    _require(isinstance(values, list) and kinds <= {int, float} and np.isfinite(grid).all(),
             message)
    return grid


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be a boolean, got {value!r}")
    return value


def _integers(values, name: str) -> tuple[int, ...]:
    return tuple(_integer(v, f"{name}[{i}]") for i, v in enumerate(values))


def _parser(fn):
    """Report what malformed input raises inside ``fn`` as a ValidationError.

    A missing key, a wrong type, or a value that a geometry constructor
    rejects (a non-unit direction, a nonpositive side) is bad input, not a
    fault of the program.
    """

    @functools.wraps(fn)
    def parse(data, *args):
        try:
            return fn(data, *args)
        except KeyError as exc:
            raise ValidationError(f"missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(str(exc)) from None

    return parse


def cube_to_json(cube: Cube) -> dict:
    return {"min_corner": cube.min_corner.tolist(), "side": cube.side}


@_parser
def cube_from_json(data) -> Cube:
    _require(isinstance(data, dict) and "min_corner" in data and "side" in data,
             "cube stanza needs min_corner and side")
    return Cube(_numbers(data["min_corner"], "cube.min_corner"), _number(data["side"], "cube.side"))


def member_to_json(member: FamilyMember) -> dict:
    g = member.geometry
    if isinstance(g, Line):
        return {
            "anchor": g.anchor.tolist(),
            "dir": g.direction.components.tolist(),
            "weight": member.weight,
        }
    return {
        "polyline": {
            "breakpoints": g.breakpoints.tolist(),
            "values": g.values.tolist(),
            "lip": g.lip,
        },
        "weight": member.weight,
    }


def member_from_json(data, axis: int, name: str) -> FamilyMember:
    _require(isinstance(data, dict), "member stanza must be an object")
    weight = _number(data.get("weight", 1.0), f"{name}.weight")
    if "polyline" in data:
        p = data["polyline"]
        curve = LipschitzCurve(
            axis,
            _numbers(p["breakpoints"], f"{name}.polyline.breakpoints"),
            _numbers(p["values"], f"{name}.polyline.values"),
            _number(p["lip"], f"{name}.polyline.lip"),
        )
        return FamilyMember(curve, weight)
    _require("anchor" in data and "dir" in data,
             "member needs anchor+dir or polyline")
    line = Line(_numbers(data["anchor"], f"{name}.anchor"),
                Direction(_numbers(data["dir"], f"{name}.dir")))
    return FamilyMember(line, weight)


def family_to_json(family: TubeFamily) -> dict:
    return {
        "axis": family.axis,
        "radius": family.base_radius,
        "members": [member_to_json(m) for m in family.members],
    }


def config_to_json(config: Configuration) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "n": config.n,
        "cube": cube_to_json(config.cube),
        "families": [family_to_json(f) for f in config.families],
    }
    if config.direction_sets is not None:
        out["direction_sets"] = [
            {"center": c.center.components.tolist(), "ang_radius": c.ang_radius}
            for c in config.direction_sets
        ]
    return out


@_parser
def config_from_json(data) -> Configuration:
    _require(isinstance(data, dict), "top level must be an object")
    _require(data.get("schema_version") == SCHEMA_VERSION,
             f"unsupported schema_version {data.get('schema_version')!r}")
    _require("n" in data and "cube" in data and "families" in data,
             "config needs n, cube, families")
    n = _integer(data["n"], "n")
    cube = cube_from_json(data["cube"])
    _require(cube.n == n, "cube dimension differs from n")
    families = []
    for i, stanza in enumerate(data["families"]):
        _require(isinstance(stanza, dict) and "axis" in stanza,
                 "family stanza needs an axis")
        axis = _integer(stanza["axis"], f"families[{i}].axis")
        radius = _number(stanza.get("radius", 1.0), f"families[{i}].radius")
        members = tuple(
            member_from_json(m, axis, f"families[{i}].members[{k}]")
            for k, m in enumerate(stanza.get("members", []))
        )
        families.append(TubeFamily(axis, n, members, radius))
    direction_sets = None
    if "direction_sets" in data:
        direction_sets = tuple(
            Cap(Direction(_numbers(c["center"], f"direction_sets[{i}].center")),
                _number(c["ang_radius"], f"direction_sets[{i}].ang_radius"))
            for i, c in enumerate(data["direction_sets"])
        )
        _require(len(direction_sets) == n, "need one direction set per axis")
    return Configuration(n, cube, tuple(families), direction_sets)


_REGIME_KINDS = {
    "axis_parallel": AxisParallel,
    "small_angle": SmallAngle,
    "general": GeneralAngle,
    "lipschitz": Lipschitz,
    "weighted": Weighted,
}


def regime_from_json(data) -> Regime:
    _require(isinstance(data, dict) and "kind" in data, "regime stanza needs a kind")
    kind = data["kind"]
    _require(kind in _REGIME_KINDS, f"unknown regime kind {kind!r}")
    if kind == "axis_parallel":
        return AxisParallel()
    if kind == "general":
        return GeneralAngle()
    delta = _number(data["delta"], "gen.regime.delta")
    if kind == "small_angle":
        return SmallAngle(delta)
    if kind == "lipschitz":
        return Lipschitz(delta, _integer(data["breakpoints"], "gen.regime.breakpoints"))
    return Weighted(_number(data["low"], "gen.regime.low"),
                    _number(data["high"], "gen.regime.high"), delta)


@_parser
def genspec_from_json(data) -> GenSpec:
    _require(isinstance(data, dict), "generator spec must be an object")
    for key in ("n", "counts", "regime", "cube", "seed"):
        _require(key in data, f"generator spec needs {key!r}")
    return GenSpec(
        _integer(data["n"], "gen.n"),
        _integers(data["counts"], "gen.counts"),
        regime_from_json(data["regime"]),
        cube_from_json(data["cube"]),
        _integer(data["seed"], "gen.seed"),
        _number(data.get("radius", 1.0), "gen.radius"),
    )


def _stanza(data, command: str, keys) -> dict:
    """The command's stanza (or the whole file), checked to hold ``keys``."""
    stanza = data.get(command, data) if isinstance(data, dict) else data
    _require(isinstance(stanza, dict), f"{command} stanza must be an object")
    missing = [k for k in keys if k not in stanza]
    _require(not missing, f"{command} stanza needs {', '.join(missing)}")
    return stanza


@_parser
def sweep_from_json(data, delta: float | None = None) -> tuple[GenSpec, list[float], float]:
    """(template, s_values, delta) of a ``sweep`` stanza; ``delta`` overrides its own."""
    keys = ("template", "s_values") + (("delta",) if delta is None else ())
    stanza = _stanza(data, "sweep", keys)
    return (
        genspec_from_json(stanza["template"]),
        [_number(s, f"sweep.s_values[{i}]") for i, s in enumerate(stanza["s_values"])],
        _number(stanza["delta"], "sweep.delta") if delta is None else delta,
    )


@_parser
def search_from_json(data, seed: int | None = None) -> dict:
    """``extremal_search`` arguments of a ``search`` stanza; ``seed`` overrides its own."""
    keys = ("n", "counts", "cube", "budget") + (("seed",) if seed is None else ())
    stanza = _stanza(data, "search", keys)
    return {
        "n": _integer(stanza["n"], "search.n"),
        "counts": _integers(stanza["counts"], "search.counts"),
        "cube": cube_from_json(stanza["cube"]),
        "budget": _integer(stanza["budget"], "search.budget"),
        "seed": _integer(stanza["seed"], "search.seed") if seed is None else seed,
        "annealing": _boolean(stanza.get("annealing", False), "search.annealing"),
    }


def _box_from_json(data, name: str) -> Box:
    return Box(
        _numbers(data["min_corner"], f"{name}.min_corner"),
        _numbers(data["sides"], f"{name}.sides"),
    )


@_parser
def lw_inputs_from_json(data) -> tuple[list[ProjectionFunction], Box]:
    """Loomis-Whitney inputs: {"functions": [{"box", "values"}, ...], "box"}."""
    fns = [
        ProjectionFunction(
            _box_from_json(f["box"], f"functions[{i}].box"),
            _grid(f["values"], f"functions[{i}].values"),
        )
        for i, f in enumerate(data["functions"])
    ]
    return fns, _box_from_json(data["box"], "box")


class _Slot:
    """The type of ``SLOT``."""

    __slots__ = ()


#: a leaf of a ``Records`` layout that each record fills
SLOT = _Slot()
# The text of a slot in a rendered layout.  JSON text never holds a raw NUL
# (a string's control characters are escaped), so it marks slots alone.
_SLOT_TEXT = "\x00"


@dataclass(frozen=True, eq=False)
class Records:
    """A list of records that share one layout, written as the JSON list of them.

    ``layout`` is a JSON value, dicts and lists of leaves, in which each
    ``SLOT`` is a leaf that every record fills.  ``rows`` holds one tuple per
    record: its leaves in the order in which the layout's slots are written
    (dict order, list order).  A leaf must be an exact ``int`` or a finite
    exact ``float``; the writer rejects any other (a bool, a numpy scalar, an
    int subclass, NaN, an infinity) with a TypeError or ValueError, and a
    row whose length is not the layout's slot count with a ValueError.
    Each is written as its repr, which is its ``json`` text.
    """

    layout: object
    rows: list

    @classmethod
    def from_columns(cls, columns: dict) -> Records:
        """Records whose layout is ``columns``, a dict of dicts and stacked columns.

        Record p's value at each column, an array of shape (P, *s), is row p:
        an s-shaped nested list of slots in the layout, and of leaves
        (``tolist``, so Python ints and floats) in the row.  One walk builds
        both, so the slots and the leaves come in the same order.
        """
        flat = []

        def slots(value):
            if isinstance(value, dict):
                return {k: slots(v) for k, v in value.items()}
            flat.extend(value.reshape(len(value), math.prod(value.shape[1:])).T.tolist())
            return np.full(value.shape[1:], SLOT, dtype=object).tolist()

        layout = slots(columns)
        return cls(layout, list(zip(*flat)))


def _append_records(records: Records, out: list, newline: str) -> None:
    """Append the JSON text of ``records``; ``newline`` breaks a line at its depth.

    ``_append`` renders the layout once, one level deeper, with a marker per
    slot; with every literal ``%`` escaped and each marker made ``%r``, it is
    the template that each row fills.  The rows are checked once, by C-level
    passes, for the leaves that ``%r`` writes as ``json`` does.
    """
    rows = records.rows
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    parts = []
    _append(records.layout, parts, inner)
    template = "".join(parts)
    count = template.count(_SLOT_TEXT)
    if set(map(type, rows)) != {tuple}:
        raise TypeError("each record row must be a tuple")
    if set(map(len, rows)) != {count}:
        raise ValueError(f"each record row must hold the layout's {count} leaves")
    leaves = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, leaves))
    if not kinds <= {int, float}:
        name = min(k.__name__ for k in kinds - {int, float})
        raise TypeError(f"a record leaf must be an int or a float, not {name}")
    try:
        finite = all(map(math.isfinite, leaves))
    except OverflowError:  # an int past the float range: test the floats alone
        finite = all(map(math.isfinite, itertools.compress(
            leaves, map(isinstance, leaves, itertools.repeat(float)))))
    if not finite:
        raise ValueError("a record leaf must be finite")
    template = template.replace("%", "%%").replace(_SLOT_TEXT, "%r")
    out.append("[" + inner + ("," + inner).join(map(template.__mod__, rows)) + newline + "]")


_string_text = json.encoder.encode_basestring_ascii

# The text of a leaf by its exact type, each a C function.  A float's text is
# its repr, and ``_FLOAT_TEXT`` then renames the reprs of NaN and the
# infinities: no other leaf text can be "nan", "inf" or "-inf" (a string's
# text is quoted).
_LEAF_TEXT = {
    str: _string_text,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    _Slot: {SLOT: _SLOT_TEXT}.__getitem__,
}
_FLOAT_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x) -> str:
    text = float.__repr__(x)
    return _FLOAT_TEXT.get(text, text)


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: a string, or a number, bool or None as a string."""
    if isinstance(key, str):
        return _string_text(key)
    if isinstance(key, float):
        key = _float_text(key)
    elif key is True or key is False or key is None:
        key = _LEAF_TEXT[type(key)](key)
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _string_text(key)


def _append(value, out: list, newline: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` breaks a line at its depth.

    A leaf's exact type picks its text.  Any other value is tested for the
    types ``json`` accepts, subclasses included; no object is an instance of
    two of them (their layouts conflict), so the order of the tests does not
    matter.
    """
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        text = leaf(value)
        out.append(_FLOAT_TEXT.get(text, text))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = sep = newline + "  "
        comma = "," + inner
        out.append("{")
        for k, v in value.items():
            key = sep + _key_text(k) + ": "
            leaf = _LEAF_TEXT.get(type(v))
            if leaf is None:
                out.append(key)
                _append(v, out, inner)
            else:
                text = leaf(v)
                out.append(key + _FLOAT_TEXT.get(text, text))
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = sep = newline + "  "
        comma = "," + inner
        try:  # a list of leaves (a point, a matrix row) in one join
            texts = [_LEAF_TEXT[type(v)](v) for v in value]
        except KeyError:
            out.append("[")
            for v in value:
                out.append(sep)
                _append(v, out, inner)
                sep = comma
            out.append(newline + "]")
            return
        text = comma.join(texts)
        if "n" in text:  # a NaN or an infinity, or else a null or a string holding an n
            text = comma.join([_FLOAT_TEXT.get(t, t) for t in texts])
        out.append("[" + inner + text + newline + "]")
    elif isinstance(value, str):
        out.append(_string_text(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, Records):
        _append_records(value, out, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(obj: dict, fh) -> None:
    """Write ``obj`` to the text file ``fh`` as every JSON output: indent 2, then a newline.

    The text is ``json.dumps(obj, indent=2) + "\\n"`` byte for byte, built in
    one pass and written at once.  Types are tested as ``json`` tests them
    (str, int, float, list or tuple, dict; subclasses included), so an
    ``np.float64`` is a float and an ``np.int64`` a ``TypeError``; NaN and
    infinities are written as ``NaN`` and ``Infinity``.  ``Records`` are
    written as the list of their records, each filling one template that
    ``_append`` renders once per list; a ``SLOT`` outside a layout is a
    ``TypeError``.  Nothing is written if a value is rejected.
    """
    out = []
    _append(obj, out, "\n")
    out.append("\n")
    text = "".join(out)
    if _SLOT_TEXT in text:
        raise TypeError("a record SLOT is only a leaf of a Records layout")
    fh.write(text)


def dump_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
