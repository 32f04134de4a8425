"""Descriptors for homogeneous operator-space structures on a Hilbert space.

A structure is recorded by its pair of fundamental functions: the column
fundamental function ``phi_c`` and the row one ``phi_r``, both normalised
so that ``phi(1) == 1``.  Four shapes are distinguished by ``kind``:

* ``"column"`` / ``"row"`` — the two endpoint structures,
* ``"column_cap_row"`` — their intersection,
* ``"weighted"`` — the regular (non-endpoint) case, which is equivalent
  to a structure built from a pair of weight densities.

For the weighted kind the canonical densities are recoverable from the
fundamental functions alone (``min(1, 1/phi^{-1})`` per side), and the
fundamental functions are in turn recoverable from the densities through
the growth construction, up to bounded multiplicative constants.  The
:func:`catalog` factory builds the standard named families exactly, and
:func:`descriptor_to_json` / :func:`descriptor_from_json` give a stable
interchange format for the command-line tools.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Any

from .errors import BadParameter, NotRegular, OsinvError, ParseError
from .growth import (
    DEFAULT_REG_WINDOW,
    RegularityReport,
    clamped_reciprocal_inverse,
    growth_fn,
    regularity_report,
)
from .monotone_fn import MonotoneFn, evaluate, make_piecewise

__all__ = [
    "SpaceDescriptor",
    "WeightPair",
    "canonical_weights",
    "catalog",
    "check_space_regularity",
    "descriptor_from_json",
    "descriptor_to_json",
    "dual",
    "from_fundamental",
    "fundamental_from_weights",
]

#: Descriptor kinds, i.e. the coarse classification of a structure.
KINDS = ("column", "row", "column_cap_row", "weighted")

#: Catalog families that take the parameter ``p``.
_P_FAMILIES = ("column_p", "row_p", "cr_p")

#: Catalog families that take no parameter.
_PLAIN_FAMILIES = ("oh", "c", "r", "c_cap_r")

#: Exponent window for construction-time regularity gates.  A structure
#: is regular when both fundamental functions have local exponents
#: strictly inside (0, 1); the tiny margins only absorb rounding.
_SPACE_WINDOW = (1e-9, 1.0 - 1e-9)

#: Relative slack allowed on the normalisation ``phi(1) == 1``.
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class WeightPair:
    """Canonical weight densities of a weighted structure, in reflected form.

    ``uc_fn`` is the column density ``w_c(-s)`` for ``s > 0`` (its true
    home is the negative half line, where the row density is implicitly
    1) and ``ur_fn`` the row density on the positive half line (where
    the column density is implicitly 1).  Each is ``min(1, 1/phi^{-1})``
    of its side's fundamental function.

    Raises
    ------
    BadParameter
        A density that is not a nonincreasing :class:`MonotoneFn`, or
        one that exceeds 1 (the implicit density of the other side).
    """

    uc_fn: MonotoneFn
    ur_fn: MonotoneFn

    def __post_init__(self) -> None:
        for name in ("uc_fn", "ur_fn"):
            f = getattr(self, name)
            if not (
                isinstance(f, MonotoneFn) and f.direction == "nonincreasing"
            ):
                raise BadParameter(
                    f"{name} must be a nonincreasing MonotoneFn density"
                )
            if f.values[0] > 1.0:
                raise BadParameter(
                    f"{name} reaches {f.values[0]}; a density in reflected "
                    "form is at most 1"
                )


def _max_exponent(f: MonotoneFn) -> float:
    return max(f.segment_exponents + (f.right_exponent,))


def _min_exponent(f: MonotoneFn) -> float:
    return min(f.segment_exponents + (f.right_exponent,))


@dataclass(frozen=True)
class SpaceDescriptor:
    """A homogeneous structure, recorded by its fundamental functions.

    Parameters
    ----------
    kind:
        One of ``"column"``, ``"row"``, ``"column_cap_row"``,
        ``"weighted"``.
    phi_c, phi_r:
        Column and row fundamental functions.  Both must be
        nondecreasing with ``phi(1) == 1`` and all local exponents in
        ``[0, 1]`` (so ``phi(n)/n`` is nonincreasing).  These tables are
        the source of truth; everything else is derived from them.
    weights:
        Optional canonical weight pair attached to a weighted
        structure.  When absent it is derived on demand by
        :func:`canonical_weights`.
    label:
        Display name used by the command-line table output.
    p:
        Optional parameter of the catalog family the descriptor came
        from (``None`` for parameter-free families and custom tables).
    family:
        Catalog selector the descriptor was built from (``"column_p"``,
        ``"oh"``, ..., or ``"fundamental"``); ``None`` when unknown.
        Used to serialise descriptors compactly.

    Raises
    ------
    BadParameter
        Unknown kind, or a fundamental function that is not normalised
        or not of sublinear growth.
    NotRegular
        ``kind == "weighted"`` but some local exponent of a fundamental
        function falls outside (0, 1).
    """

    kind: str
    phi_c: MonotoneFn
    phi_r: MonotoneFn
    weights: WeightPair | None = None
    label: str = ""
    p: float | None = None
    family: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BadParameter(f"unknown descriptor kind {self.kind!r}")
        for name, f in (("phi_c", self.phi_c), ("phi_r", self.phi_r)):
            if f.direction != "nondecreasing":
                raise BadParameter(f"{name} must be nondecreasing")
            v1 = evaluate(f, 1.0)
            if abs(v1 - 1.0) > _NORM_TOL:
                raise BadParameter(
                    f"{name}(1) = {v1!r}; fundamental functions must be "
                    "normalised to 1 at 1"
                )
            if _max_exponent(f) > 1.0 + _NORM_TOL:
                raise BadParameter(
                    f"{name} grows superlinearly somewhere; phi(n)/n must "
                    "be nonincreasing"
                )
        if self.kind == "weighted":
            report = check_space_regularity(self, _SPACE_WINDOW)
            if not report.passed:
                raise NotRegular(
                    "weighted structures need both fundamental functions "
                    f"to have exponents strictly inside (0, 1); got "
                    f"[{report.alpha:.6g}, {report.beta:.6g}]"
                )


def _power_fn(exponent: float) -> MonotoneFn:
    """Exact representation of ``n -> n**exponent`` on ``[1, inf)``."""
    return make_piecewise(
        [1.0], [1.0], right_exponent=float(exponent),
        direction="nondecreasing",
    )


def _family_label(family: str, p: float | None) -> str:
    plain = {"oh": "OH", "c": "C", "r": "R", "c_cap_r": "C_cap_R"}
    if family in plain:
        return plain[family]
    prefix = {"column_p": "C", "row_p": "R", "cr_p": "CR"}[family]
    return f"{prefix}_{p:g}"


def catalog(kind: str, p: float | None = None) -> SpaceDescriptor:
    """Build one of the standard named structures, exactly.

    ``kind`` selects the family:

    ``"column_p"`` / ``"row_p"``
        The column/row structure of the p-th Schatten ideal, with
        fundamental functions ``n**(1/p')`` and ``n**(1/p)`` (the column
        family puts the larger exponent on the column side for
        ``p > 2``; the row family mirrors it).  Requires ``1 < p < oo``.
    ``"cr_p"``
        The intersection of the two, both fundamental functions equal
        to ``n**(1/p')``.
    ``"oh"``
        The self-dual structure, both fundamental functions ``sqrt(n)``.
    ``"c"`` / ``"r"`` / ``"c_cap_r"``
        The endpoint structures (``p`` must be omitted).

    Raises
    ------
    BadParameter
        Unknown family, a ``p`` outside ``(1, oo)``, a missing ``p``
        for a parametric family, or a ``p`` given for a plain one.
    """
    if kind in _P_FAMILIES:
        if p is None:
            raise BadParameter(f"family {kind!r} needs the parameter p")
        p = float(p)
        if not (1.0 < p < math.inf):
            raise BadParameter(
                f"p = {p!r} outside the open interval (1, oo)"
            )
        e_dual = 1.0 - 1.0 / p  # exponent 1/p' of the conjugate index
        e_same = 1.0 / p
        if kind == "column_p":
            ec, er = e_dual, e_same
        elif kind == "row_p":
            ec, er = e_same, e_dual
        else:  # cr_p
            ec = er = e_dual
        return SpaceDescriptor(
            kind="weighted",
            phi_c=_power_fn(ec),
            phi_r=_power_fn(er),
            label=_family_label(kind, p),
            p=p,
            family=kind,
        )
    if kind in _PLAIN_FAMILIES:
        if p is not None:
            raise BadParameter(f"family {kind!r} takes no parameter")
        table = {
            "oh": ("weighted", 0.5, 0.5),
            "c": ("column", 1.0, 0.0),
            "r": ("row", 0.0, 1.0),
            "c_cap_r": ("column_cap_row", 1.0, 1.0),
        }
        desc_kind, ec, er = table[kind]
        return SpaceDescriptor(
            kind=desc_kind,
            phi_c=_power_fn(ec),
            phi_r=_power_fn(er),
            label=_family_label(kind, None),
            family=kind,
        )
    raise BadParameter(f"unknown catalog family {kind!r}")


def _aggregate_regularity(
    phi_c: MonotoneFn,
    phi_r: MonotoneFn,
    alpha_beta_window: tuple[float, float],
) -> RegularityReport:
    rc = regularity_report(phi_c, alpha_beta_window=alpha_beta_window)
    rr = regularity_report(phi_r, alpha_beta_window=alpha_beta_window)
    return RegularityReport(
        alpha=min(rc.alpha, rr.alpha),
        beta=max(rc.beta, rr.beta),
        c=min(rc.c, rr.c),
        d=max(rc.d, rr.d),
        passed=rc.passed and rr.passed,
        window=alpha_beta_window,
    )


def check_space_regularity(
    desc: SpaceDescriptor,
    alpha_beta_window: tuple[float, float] = DEFAULT_REG_WINDOW,
) -> RegularityReport:
    """Aggregate regularity report over both fundamental functions.

    ``alpha`` is the smallest local exponent seen on either side,
    ``beta`` the largest, and ``passed`` requires both sides to pass
    individually within ``alpha_beta_window``.
    """
    return _aggregate_regularity(
        desc.phi_c, desc.phi_r, alpha_beta_window
    )


def _rescaled_to_one(f: MonotoneFn) -> MonotoneFn:
    """Divide ``f`` through by ``f(1)`` so the result is 1 at 1."""
    v1 = evaluate(f, 1.0)
    if v1 <= 0.0 or v1 != v1:
        raise BadParameter(f"cannot normalise: f(1) = {v1!r}")
    if v1 == 1.0:
        return f
    return MonotoneFn(
        knots=f.knots,
        values=tuple(v / v1 for v in f.values),
        right_exponent=f.right_exponent,
        direction=f.direction,
    )


def _canonical_pair(phi_c: MonotoneFn, phi_r: MonotoneFn) -> WeightPair:
    """Canonical densities ``min(1, 1/phi^{-1})`` per side."""
    for name, f in (("phi_c", phi_c), ("phi_r", phi_r)):
        if _min_exponent(f) <= 0.0:
            raise NotRegular(
                f"{name} has a flat stretch; cannot invert it to recover "
                "a weight"
            )
    return WeightPair(
        clamped_reciprocal_inverse(phi_c), clamped_reciprocal_inverse(phi_r)
    )


def from_fundamental(
    phi_c: MonotoneFn,
    phi_r: MonotoneFn,
    label: str = "fundamental",
) -> SpaceDescriptor:
    """Build a weighted structure from a pair of fundamental functions.

    Both inputs are rescaled so that ``phi(1) == 1`` (any positive
    scale is accepted), then gated on regularity: every local exponent
    must lie strictly inside (0, 1).  The canonical weight pair
    ``min(1, 1/phi^{-1})`` is derived per side and attached to the
    returned descriptor.

    Raises
    ------
    NotRegular
        Some local exponent of a rescaled input falls outside (0, 1) —
        for example ``phi(n) = n`` (an endpoint structure, not a
        weighted one).
    DirectionError
        An input is nonincreasing.
    """
    pc = _rescaled_to_one(phi_c)
    pr = _rescaled_to_one(phi_r)
    report = _aggregate_regularity(pc, pr, _SPACE_WINDOW)
    if not report.passed:
        raise NotRegular(
            "fundamental functions must have exponents strictly inside "
            f"(0, 1); got [{report.alpha:.6g}, {report.beta:.6g}]"
        )
    return SpaceDescriptor(
        kind="weighted",
        phi_c=pc,
        phi_r=pr,
        weights=_canonical_pair(pc, pr),
        label=label,
        family="fundamental",
    )


def canonical_weights(desc: SpaceDescriptor) -> WeightPair:
    """Canonical weight pair of a weighted structure.

    Returns the attached pair when the descriptor carries one,
    otherwise derives the canonical pair ``min(1, 1/phi^{-1})`` from
    the fundamental functions.

    Raises
    ------
    NotRegular
        The descriptor is an endpoint structure (or otherwise fails
        the exponent gate), so no weight pair represents it.
    """
    if desc.weights is not None:
        return desc.weights
    report = check_space_regularity(desc, _SPACE_WINDOW)
    if not report.passed:
        raise NotRegular(
            "only regular (weighted) structures have canonical weights; "
            f"exponent range is [{report.alpha:.6g}, {report.beta:.6g}]"
        )
    return _canonical_pair(desc.phi_c, desc.phi_r)


def fundamental_from_weights(
    pair: WeightPair,
) -> tuple[MonotoneFn, MonotoneFn]:
    """Fundamental functions generated by a canonical weight pair.

    Each side's function is the growth function of its density: the
    solution ``g(s)`` of ``t = s * H(t)`` with ``H`` the tail integral
    of the density.  The results reproduce the fundamental functions
    the pair came from up to bounded multiplicative constants (they are
    not rescaled here; feed them to :func:`from_fundamental` to
    normalise).

    Raises
    ------
    DivergentTail
        A side's density has a non-integrable tail.
    """
    return growth_fn(pair.uc_fn), growth_fn(pair.ur_fn)


def _dual_fn(f: MonotoneFn) -> MonotoneFn:
    """Exact table for ``n -> n / f(n)`` on ``[1, inf)``."""
    knots, values = f.knots, f.values
    if knots[0] > 1.0:
        # Make the constant head explicit so the dual's linear piece on
        # [1, knots[0]] is represented.
        knots = (1.0,) + knots
        values = (values[0],) + values
    return MonotoneFn(
        knots=knots,
        values=tuple(t / v for t, v in zip(knots, values)),
        right_exponent=1.0 - f.right_exponent,
        direction="nondecreasing",
    )


_DUAL_KIND = {"column": "row", "row": "column"}

_DUAL_FAMILY = {
    "column_p": "row_p",
    "row_p": "column_p",
    "cr_p": "cr_p",
    "oh": "oh",
    "c": "r",
    "r": "c",
    "fundamental": "fundamental",
}


def _dual_label(label: str) -> str:
    if label.startswith("dual(") and label.endswith(")"):
        return label[5:-1]
    return f"dual({label})"


def dual(desc: SpaceDescriptor) -> SpaceDescriptor:
    """Antidual structure, with fundamental functions ``n / phi(n)``.

    The tables are transformed knot by knot (value ``t/v``, local
    exponents ``e -> 1 - e``), so ``phi(n) * dual(phi)(n) == n`` holds
    identically on ``[1, inf)`` and applying :func:`dual` twice
    reproduces the original fundamental functions to machine precision.
    Column and row kinds swap; the intersection and weighted kinds are
    self-paired.  Catalog identities are tracked and rebuilt through
    :func:`catalog` (so they stay exact): the dual of ``column_p`` is
    ``row_p`` at the same ``p``, and the dual of ``cr_p`` is
    ``cr_{p'}`` at the conjugate index.
    """
    family = _DUAL_FAMILY.get(desc.family) if desc.family else None
    if family is not None and family != "fundamental":
        p = desc.p
        if family == "cr_p":
            p = p / (p - 1.0)
        return catalog(family, p)
    return SpaceDescriptor(
        kind=_DUAL_KIND.get(desc.kind, desc.kind),
        phi_c=_dual_fn(desc.phi_c),
        phi_r=_dual_fn(desc.phi_r),
        label=_dual_label(desc.label),
        family=family,
    )


def _fn_to_json(f: MonotoneFn) -> dict[str, Any]:
    return {
        "knots": list(f.knots),
        "values": list(f.values),
        "right_exponent": f.right_exponent,
    }


def descriptor_to_json(desc: SpaceDescriptor) -> dict[str, Any]:
    """Serialise a descriptor to a JSON-compatible dictionary.

    Catalog-built descriptors serialise compactly by family selector
    (plus ``p`` where applicable); anything else serialises as
    ``{"kind": "fundamental", "phi_c": ..., "phi_r": ...}`` with
    explicit tables.  The display label is always included.

    Raises
    ------
    NotRegular
        The descriptor has no catalog family and is not regular, so no
        JSON form represents it.
    """
    out: dict[str, Any]
    if desc.family in _P_FAMILIES:
        out = {"kind": desc.family, "p": desc.p}
    elif desc.family in _PLAIN_FAMILIES:
        out = {"kind": desc.family}
    else:
        report = check_space_regularity(desc, _SPACE_WINDOW)
        if not report.passed:
            raise NotRegular(
                "only catalog members and regular structures have a "
                "JSON form"
            )
        out = {
            "kind": "fundamental",
            "phi_c": _fn_to_json(desc.phi_c),
            "phi_r": _fn_to_json(desc.phi_r),
        }
    out["label"] = desc.label
    return out


def _reject_booleans(where: str, *items: Any) -> None:
    """JSON ``true``/``false`` load as ``bool``, a subclass of ``int``;
    they are not numbers here."""
    if any(isinstance(x, bool) for x in items):
        raise ParseError(f"{where} must be numbers, not booleans")


def _fn_from_json(obj: Mapping[str, Any], key: str) -> MonotoneFn:
    sub = obj.get(key)
    if not isinstance(sub, Mapping):
        raise ParseError(f"descriptor needs a {key!r} table")
    knots = sub.get("knots")
    values = sub.get("values")
    exponent = sub.get("right_exponent")
    if isinstance(knots, list) and isinstance(values, list):
        _reject_booleans(f"{key!r} entries", *knots, *values, exponent)
    if (
        not isinstance(knots, list)
        or not isinstance(values, list)
        or not all(isinstance(x, (int, float)) for x in knots + values)
        or not isinstance(exponent, (int, float))
    ):
        raise ParseError(
            f"{key!r} needs numeric 'knots', 'values' and "
            "'right_exponent'"
        )
    try:
        return make_piecewise(
            [float(x) for x in knots],
            [float(x) for x in values],
            right_exponent=float(exponent),
            direction="nondecreasing",
        )
    except OsinvError as exc:
        raise ParseError(f"bad {key!r} table: {exc}") from exc


def descriptor_from_json(obj: Mapping[str, Any]) -> SpaceDescriptor:
    """Rebuild a descriptor from its JSON dictionary form.

    Accepts the catalog selectors (``{"kind": "column_p", "p": 3}``,
    ``{"kind": "oh"}``, ...) and explicit tables
    (``{"kind": "fundamental", "phi_c": {...}, "phi_r": {...}}``).
    An optional ``"label"`` overrides the display name.

    Raises
    ------
    ParseError
        Structurally malformed input (wrong types, missing fields,
        unknown kind, out-of-range parameter).
    NotRegular
        Well-formed explicit tables that fail the regularity gate.
    """
    if not isinstance(obj, Mapping):
        raise ParseError("descriptor must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ParseError("descriptor needs a string 'kind'")
    if kind == "fundamental":
        phi_c = _fn_from_json(obj, "phi_c")
        phi_r = _fn_from_json(obj, "phi_r")
        desc = from_fundamental(phi_c, phi_r)
    elif kind in _P_FAMILIES or kind in _PLAIN_FAMILIES:
        p = obj.get("p")
        _reject_booleans("'p'", p)
        if kind in _P_FAMILIES and not isinstance(p, (int, float)):
            raise ParseError(f"family {kind!r} needs a numeric 'p'")
        try:
            desc = catalog(kind, float(p) if p is not None else None)
        except BadParameter as exc:
            raise ParseError(str(exc)) from exc
    else:
        raise ParseError(f"unknown descriptor kind {kind!r}")
    label = obj.get("label")
    if label is not None:
        if not isinstance(label, str):
            raise ParseError("'label' must be a string")
        desc = replace(desc, label=label)
    return desc
