"""Byte-identity of the benchmark's golden requests.

``bench/golden.json`` holds the sha256 of the CLI output of the first
requests of each benchmark stream at the default seed (100 ``catalog``,
12 ``knotted`` and one ``verify`` request).  The benchmark checks them
after every run; replaying them here through :func:`osinv.cli.main`
makes a moved bit in any workload fail the test suite as well.  The
request streams and the digest file are read from ``bench/`` as they
are, never written.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from osinv.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import checks  # noqa: E402
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", sorted(checks.GOLDEN_COUNT))
def test_golden_requests_keep_their_digests(workload: str) -> None:
    golden = checks.load_golden()
    requests = checks.golden_requests(workload)
    assert len(requests) == checks.GOLDEN_COUNT[workload]
    moved = []
    for i, req in enumerate(requests):
        key = checks.argv_key(req.argv)
        assert key in golden, f"request {i} has no committed digest"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(req.argv))
        if code != 0 or checks.output_digest(buf.getvalue()) != golden[key]:
            moved.append(i)
    assert moved == [], f"{workload} requests whose output moved: {moved}"
