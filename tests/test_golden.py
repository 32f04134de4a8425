"""Byte-identity of CLI stdout on a fixed golden set.

Each case runs :func:`osinv.cli.main` in-process and compares the sha256
digest of what it wrote to stdout against a committed digest.  The set
covers ``table`` and ``pi1`` on the four catalog families and on seeded
many-knot fundamental tables (m = 25 and m = 200, the m = 200 ``table``
in both formats), ``fit`` on OH and on an m = 25 table in both formats,
``fit`` and ``table`` on that m = 25 table over a 300-point grid,
``table``, ``fit`` and ``pi1`` on m = 25 spaces whose sweeps share equal
tables (one table on both sides, and a table beside its antidual), and
the full ``verify`` battery (the only path through the Orlicz and
oracle code), so a change to the evaluation path that moves
any printed digit fails here.

The many-knot tables are generated with :class:`random.Random` and plain
float arithmetic, whose outputs are reproducible across platforms and
Python versions, so the inputs (which are echoed into the header
comment) are themselves stable.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from osinv.cli import main

GRID = "geometric:16:1048576:9"
#: 300 points, so the slope window holds 150: above 128, where numpy's
#: pairwise summation splits a row into blocks.
WIDE_GRID = "geometric:16:1099511627776:300"

OH = {"kind": "oh"}
COLUMN = {"kind": "column_p", "p": 3.0}
ROW = {"kind": "row_p", "p": 4.0 / 3.0}
CR = {"kind": "cr_p", "p": 2.5}


def _knotted_table(rng: random.Random, m: int) -> dict:
    """Table on ``m`` log-spaced knots over ``[1, 1e6]`` with chord
    exponents and right exponent drawn from (0.3, 0.7)."""
    knots = [10.0 ** (6.0 * i / (m - 1)) for i in range(m)]
    exps = [rng.uniform(0.3, 0.7) for _ in range(m)]
    values = [1.0]
    for i in range(m - 1):
        values.append(values[-1] * (knots[i + 1] / knots[i]) ** exps[i])
    return {"knots": knots, "values": values, "right_exponent": exps[-1]}


def _knotted_space(seed: int, m: int) -> dict:
    rng = random.Random(seed)
    return {
        "kind": "fundamental",
        "phi_c": _knotted_table(rng, m),
        "phi_r": _knotted_table(rng, m),
    }


def _symmetric_space(seed: int, m: int) -> dict:
    """One seeded table on both sides: the two mixed quadrants of a
    sweep carry equal tables."""
    table = _knotted_table(random.Random(seed), m)
    return {"kind": "fundamental", "phi_c": table, "phi_r": table}


def _antidual_space(seed: int, m: int) -> dict:
    """A seeded ``phi_c`` with ``phi_r`` its antidual table (values
    ``t/v``, right exponent ``1 - e``): the two axes of a self-sweep's
    first quadrant carry equal tables."""
    phi_c = _knotted_table(random.Random(seed), m)
    phi_r = {
        "knots": phi_c["knots"],
        "values": [t / v for t, v in zip(phi_c["knots"], phi_c["values"])],
        "right_exponent": 1.0 - phi_c["right_exponent"],
    }
    return {"kind": "fundamental", "phi_c": phi_c, "phi_r": phi_r}


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _table(space: dict, *extra: str) -> tuple[str, ...]:
    return ("table", "--space", _dump(space), "--n", GRID, *extra)


def _pi1(domain: dict, codomain: dict, *extra: str) -> tuple[str, ...]:
    return ("pi1", "--domain", _dump(domain), "--codomain", _dump(codomain),
            "--n", GRID, *extra)


K25_A, K25_B = _knotted_space(25, 25), _knotted_space(2025, 25)
K200_A, K200_B = _knotted_space(200, 200), _knotted_space(2200, 200)
SYM_A, SYM_B = _symmetric_space(125, 25), _symmetric_space(2125, 25)
ANTI = _antidual_space(325, 25)

CASES: dict[str, tuple[str, ...]] = {
    "table-oh": _table(OH),
    "table-column": _table(COLUMN),
    "table-row": _table(ROW),
    "table-cr": _table(CR, "--out", "json"),
    "pi1-oh-column": _pi1(OH, COLUMN),
    "pi1-column-row": _pi1(COLUMN, ROW),
    "pi1-row-cr": _pi1(ROW, CR, "--out", "json"),
    "pi1-cr-oh": _pi1(CR, OH),
    "table-m25": _table(K25_A),
    "table-m200": _table(K200_A),
    "table-m200-json": _table(K200_A, "--out", "json"),
    "pi1-m25": _pi1(K25_A, K25_B),
    "pi1-m200": _pi1(K200_A, K200_B, "--out", "json"),
    "fit-m25": ("fit", "--space", _dump(K25_A), "--n", GRID, "--out", "json"),
    "fit-m25-csv": ("fit", "--space", _dump(K25_A), "--n", GRID),
    "fit-oh": ("fit", "--space", _dump(OH), "--n", GRID),
    "fit-m25-wide": ("fit", "--space", _dump(K25_A), "--n", WIDE_GRID,
                     "--out", "json"),
    "table-m25-wide": ("table", "--space", _dump(K25_A), "--n", WIDE_GRID,
                       "--out", "json"),
    "table-m25-sym": _table(SYM_A),
    "fit-m25-sym": ("fit", "--space", _dump(SYM_A), "--n", GRID,
                    "--out", "json"),
    "table-m25-antidual": _table(ANTI),
    "pi1-m25-sym": _pi1(SYM_A, SYM_B),
    "verify": ("verify",),
}

#: sha256 of each case's stdout, recorded before the hot-path rewrite
#: (bisect piece lookup and per-sweep composed-integral tables); the
#: ``fit`` and ``verify`` digests were recorded before the piece lookups
#: of the Orlicz and oracle paths were merged into one; the ``fit`` CSV
#: digests were recorded before the three sweep commands shared a driver.
#: ``table-m200-json``, whose JSON pins ``ex`` and ``proj`` at m = 200 to
#: every digit, was recorded before composition walked its ascending
#: points.  The two ``-wide`` digests, whose slopes are fitted over 150
#: points, were recorded before the fits of a sweep shared one design.
#: The ``-sym`` and ``-antidual`` digests were recorded before a sweep
#: built equal quadrants and equal axes once.
DIGESTS = {
    "fit-m25": "6647537fdf3cb4acaa7ceaa4d9eccf419497a562d47f7e23a366c9c5bea0305f",
    "fit-m25-csv": "e5e90cbc0255bde4f9789621fb6f4f7ede4abf43d9fa8031d421b7fa79c52981",
    "fit-m25-wide": "3c1e0640bee4607afefca81ca1612b5d17364757c057d79471f2d5dd032d521b",
    "fit-oh": "59e137b4fc0171ad262f1ba07615f69a937a402af0275f06e4ae6947159d05d9",
    "pi1-column-row": "735e2885177ef46585e8f507e4d6a767773af41328dec66eb12219116b0a151a",
    "pi1-cr-oh": "1eb4ce6510ad7c3a3b88fdd706f2cd2d99a4f0629ab35f4fbe43f846630c722b",
    "pi1-m200": "e6cca76be50a0bc385d5f89c0b05a3f80be1920d5a40146650f338e851d36e0c",
    "pi1-m25": "459b25f223a4ab35ba42bbad4c63343db4b4a64aafb4da55ba42901a157274d2",
    "pi1-oh-column": "b8bd6efc5fff48dd86935dddc0ae8ec51ae19d66f34f1d9b5b7d076cfeb409d8",
    "pi1-row-cr": "c191b357e3ecb6e73e400f6faf081541af57130ed55f003a369ced96bc68c67b",
    "table-column": "a84226c518e5bfc80369144d4d5f611aa2c7a1ef7d5363be6131cce60f3d01fb",
    "table-cr": "224875c147d7083a1db6910ad81279ba4dfcf0711c338eca71eb3278bc763e0d",
    "table-m200": "979a14cd0d524d61e1c4d6830223b53102179a44d6b5cf654a63ceb05bfa8aec",
    "table-m200-json": "cd4c1939af7cd4cad80c8f74494cec7d283dfe4f4092d1494d332bf1fe632099",
    "table-m25-wide": "81d7593116e05e8ab303d233828987b01535593440f94e8fa5e5b4228a47582e",
    "table-m25": "1c08b95e45fa90a5c7ab8067b42df81f5693bcd55ed88a8d99eecc6bfb07b213",
    "table-oh": "a74d1ff82565dc366ef3cbe762c7b3722d65dd7798a03a8bf8d73b8ec0ef8469",
    "table-row": "8f7f15af2e44877973bf4abe42f335fb7721b8fc08d38d7a131a43cb5a2b5e9c",
    "table-m25-sym": "3a22978dfbc2aea54d0f567d86e87f74a2dc953b01f8178dce919a845bcd8128",
    "fit-m25-sym": "b00a20ebf71fe01d3e981ff196e19b4486550ff9aa51d1282b0029260cf0e557",
    "table-m25-antidual": "6c52c1ee4b13c8b03ae25fdb3fe9c23d79b5022675b06a6beb22f4b07c2322d0",
    "pi1-m25-sym": "b6aa95203da0f2dbdbd64e122c98bb8c89b9ccf440d848ced92b647bd87e9b0d",
    "verify": "0470543512c26ee813f05020e492bd5b6d894a47b28f7317c81be717f9110759",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_digest(name: str, capsys) -> None:
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
