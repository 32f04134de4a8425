"""Seeded request streams for the four benchmark workloads.

Every stream is endless and deterministic: request ``i`` depends only on
the seed and on the requests before it, so a run that completes more
requests sees the same prefix as a run that completes fewer.  Class
shares (operation, space family, knot count, cold pair) are laid out in
shuffled fixed-size cycles rather than drawn independently, so the mix
is exact in every run and seeds change only the inputs within a class.
This keeps the percentiles inside a class and off class boundaries.

The program sees only what a request carries: a CLI argv for
``osinv.cli.main``, or descriptors and a matrix for
``osinv.schatten.pi1_of_map``.  ``expect`` holds what the checks need to
judge the output and is never passed to the program.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

WORKLOADS = ("catalog", "knotted", "verify", "maps")

#: Seed whose CLI outputs have committed digests (see ``golden.json``).
DEFAULT_SEED = 0

FAMILIES = ("oh", "column_p", "row_p", "cr_p")

#: p values at which tests/test_acceptance.py pins the column/row slopes.
ACCEPTANCE_P = (4.0 / 3.0, 3.0, 4.0)

#: knotted: per block of 20 requests, (knot count, tables, pi1s), for
#: class weights 0.30/0.30/0.25/0.15 in every block; the m=100 split
#: varies so that every 60 requests hold exactly 2/3 tables per class.
KNOT_BLOCKS = (
    ((25, 4, 2), (50, 4, 2), (100, 3, 2), (200, 2, 1)),
    ((25, 4, 2), (50, 4, 2), (100, 3, 2), (200, 2, 1)),
    ((25, 4, 2), (50, 4, 2), (100, 4, 1), (200, 2, 1)),
)
KNOTTED_GRID = "geometric:16:1048576:9"

#: maps: one request in this many introduces a new descriptor pair.
MAPS_COLD_EVERY = 20
MAPS_POOL = 20
#: Knot count of each new pair in turn; 1 is a pair of catalog spaces.
MAPS_NEW_PAIRS = (1, 10, 1, 25, 1, 50)
#: Smaller matrix dimensions; each block of MAPS_COLD_EVERY requests holds
#: four matrices of each, one of them the identity.
MAPS_DIMS = (8, 16, 32, 64, 128)


@dataclass
class Request:
    """One operation: a CLI argv, or a ``pi1_of_map`` call."""

    workload: str
    argv: tuple[str, ...] = ()
    pair: tuple[Any, Any] | None = None
    matrix: np.ndarray | None = None
    expect: dict[str, Any] = field(default_factory=dict)


def knotted_table(rng: np.random.Generator, m: int) -> dict[str, Any]:
    """Fundamental table on ``geomspace(1, 1e6, m)`` with chord exponents
    and right exponent in (0.3, 0.7), normalised to 1 at 1."""
    knots = np.geomspace(1.0, 1e6, m)
    exps = rng.uniform(0.3, 0.7, size=m)
    values = [1.0]
    for i in range(m - 1):
        values.append(values[-1] * (knots[i + 1] / knots[i]) ** exps[i])
    return {
        "knots": [float(k) for k in knots],
        "values": [float(v) for v in values],
        "right_exponent": float(exps[-1]),
    }


def knotted_space(rng: np.random.Generator, m: int) -> dict[str, Any]:
    return {
        "kind": "fundamental",
        "phi_c": knotted_table(rng, m),
        "phi_r": knotted_table(rng, m),
    }


def _catalog_space(rng: np.random.Generator, family: str) -> dict[str, Any]:
    if family == "oh":
        return {"kind": "oh"}
    if family != "cr_p" and rng.random() < 0.5:
        p = float(ACCEPTANCE_P[int(rng.integers(len(ACCEPTANCE_P)))])
    else:
        p = float(rng.uniform(1.2, 6.0))
    return {"kind": family, "p": p}


def geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    """The n-grid ``geometric:lo:hi:count`` denotes, computed here
    independently of the program's parser."""
    ratio = hi / lo
    return sorted({round(lo * ratio ** (k / (count - 1))) for k in range(count)})


def _dump(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def catalog_stream(seed: int) -> Iterator[Request]:
    """``table`` 50%, ``fit`` 25%, ``pi1`` 25% on catalog spaces (m = 1)."""
    rng = np.random.default_rng([seed, 1])
    while True:
        ops = rng.permutation(["table", "table", "fit", "pi1"])
        fams = rng.permutation(FAMILIES)
        for op, fam in zip(ops, fams):
            count = int(rng.integers(5, 18))
            top = 2 ** int(rng.integers(20, 41))
            grid = f"geometric:16:{top}:{count}"
            fmt = "json" if rng.random() < 0.5 else "csv"
            space = _catalog_space(rng, str(fam))
            expect = {"op": str(op), "ns": geometric_grid(16, top, count),
                      "fmt": fmt}
            if op == "pi1":
                other = _catalog_space(rng, FAMILIES[int(rng.integers(4))])
                argv = ("pi1", "--domain", _dump(space), "--codomain",
                        _dump(other), "--n", grid, "--out", fmt)
                expect.update(domain=space, codomain=other)
            else:
                argv = (str(op), "--space", _dump(space), "--n", grid,
                        "--out", fmt)
                expect.update(space=space)
            yield Request("catalog", argv, expect=expect)


def knotted_stream(seed: int) -> Iterator[Request]:
    """``table`` 2/3, ``pi1`` 1/3 on random many-knot tables."""
    rng = np.random.default_rng([seed, 2])
    blocks = [
        [(m, op) for m, tables, pi1s in block
         for op in ["table"] * tables + ["pi1"] * pi1s]
        for block in KNOT_BLOCKS
    ]
    ns = geometric_grid(16, 1048576, 9)
    while True:
        for b in rng.permutation(len(blocks)):
            for k in rng.permutation(len(blocks[b])):
                m, op = blocks[b][k]
                space = knotted_space(rng, m)
                expect = {"op": op, "ns": ns, "fmt": "csv", "m": m}
                if op == "pi1":
                    other = knotted_space(rng, m)
                    argv = ("pi1", "--domain", _dump(space), "--codomain",
                            _dump(other), "--n", KNOTTED_GRID)
                    expect.update(domain=space, codomain=other)
                else:
                    argv = ("table", "--space", _dump(space), "--n",
                            KNOTTED_GRID)
                    expect.update(space=space)
                yield Request("knotted", argv, expect=expect)


def verify_stream(seed: int) -> Iterator[Request]:
    """The whole self-check battery, repeated; the seed changes nothing."""
    while True:
        yield Request("verify", ("verify",), expect={"op": "verify"})


def _new_pair(rng: np.random.Generator, m: int) -> tuple[dict, dict]:
    if m == 1:
        fams = rng.choice(FAMILIES, size=2)
        return (_catalog_space(rng, str(fams[0])),
                _catalog_space(rng, str(fams[1])))
    return knotted_space(rng, m), knotted_space(rng, m)


def _matrix(rng: np.random.Generator, r: int, identity: bool) -> np.ndarray:
    if identity:
        return np.eye(r)
    other = int(rng.integers(r, 129))
    shape = (r, other) if rng.random() < 0.5 else (other, r)
    return rng.normal(size=shape)


def maps_stream(seed: int) -> Iterator[Request]:
    """``pi1_of_map`` on seeded matrices over a sliding pool of pairs.

    The first request of every block of ``MAPS_COLD_EVERY`` brings in a
    new pair (a cold call); the rest draw from the last ``MAPS_POOL``
    pairs (warm calls).
    """
    from osinv.spaces import descriptor_from_json

    rng = np.random.default_rng([seed, 4])
    block = [(r, k == 0) for r in MAPS_DIMS for k in range(4)]
    assert len(block) == MAPS_COLD_EVERY
    pool: list[tuple[int, Any, Any]] = []
    for pid in itertools.count():
        for j, k in enumerate(rng.permutation(len(block))):
            if j == 0:
                m = MAPS_NEW_PAIRS[pid % len(MAPS_NEW_PAIRS)]
                dom, cod = _new_pair(rng, m)
                pool.append((pid, descriptor_from_json(dom),
                             descriptor_from_json(cod)))
                del pool[:-MAPS_POOL]
                entry = pool[-1]
            else:
                entry = pool[int(rng.integers(len(pool)))]
            pair_id, d, c = entry
            r, identity = block[k]
            yield Request("maps", pair=(d, c), matrix=_matrix(rng, r, identity),
                          expect={"op": "map", "pair_id": pair_id,
                                  "identity": identity, "r": r})


STREAMS = {
    "catalog": catalog_stream,
    "knotted": knotted_stream,
    "verify": verify_stream,
    "maps": maps_stream,
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    return STREAMS[workload](seed)


def scaling_space(m: int) -> dict[str, Any]:
    """Table of the knot-scaling curve; a fixed seed, so the call counts
    it yields repeat exactly from run to run."""
    return knotted_space(np.random.default_rng([0, 5, m]), m)
