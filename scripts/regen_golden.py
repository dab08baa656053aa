#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Run from anywhere; paths inside reports stay relative because the CLI is
invoked with the fixtures directory as the working directory.  The cases
are ``tests/test_cli.py``'s ``GOLDEN_CASES`` (importing it needs pytest).
Review the diff before committing: these files define the frozen observable
surface.
"""

import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fssm.cli import main  # noqa: E402
from fssm.modelfile import parse_model, serialize_model  # noqa: E402
from test_cli import GOLDEN_CASES  # noqa: E402  (golden file, exit code, argv)

FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


def regen() -> None:
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(FIXTURES)
    for name, want_code, argv in GOLDEN_CASES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code} ({argv})")
        (GOLDEN / name).write_text(buf.getvalue())
        print(f"wrote {name} ({len(buf.getvalue())} bytes)")

    canonical = serialize_model(parse_model((FIXTURES / "net1.json").read_text()))
    (GOLDEN / "net1.canonical.json").write_text(canonical)
    print(f"wrote net1.canonical.json ({len(canonical)} bytes)")


if __name__ == "__main__":
    regen()
