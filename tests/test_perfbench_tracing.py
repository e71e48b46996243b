"""The benchmark's tracer must find every package attribute it wraps."""

import subprocess
import sys
from pathlib import Path

import spacing_auctions

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_targets_resolve():
    # perfbench/tracing.py wraps functions by (owner, attribute) name; a
    # rename in the package would otherwise surface only in a traced run.
    # It is imported in a fresh interpreter that writes no bytecode, so the
    # benchmark's directory is left as it is.
    src = str(Path(spacing_auctions.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
        "pairs = [(name, owner, attr) for name, targets in tracing.SPANS + tracing.COUNTERS "
        "for owner, attr in targets]; "
        "assert len(pairs) >= 10, pairs; "
        "print([(name, getattr(owner, '__name__', owner), attr) for name, owner, attr in pairs "
        "if not callable(getattr(owner, attr, None))])"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", code, src, str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
