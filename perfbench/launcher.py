"""Run `rank1check.cli.main` with the benchmark's span wrappers installed.

Usage: python perfbench/launcher.py <rank1check arguments>

The traced cli-session run starts every CLI process through this file instead
of `python -m rank1check.cli`.  Spans are appended to the file named by
PERFBENCH_SPANS, labelled with PERFBENCH_OP and PERFBENCH_PHASE; the exit
code is the CLI's own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (after the path set-up above)


def main() -> int:
    op = int(os.environ.get("PERFBENCH_OP", "0"))
    # Span ids stay unique across the processes of one cli-session run.
    tracer = spans.Tracer(first_id=(op << 40) + 1)
    tracer.op = op
    tracer.phase = os.environ.get("PERFBENCH_PHASE", "run")
    mods = spans.rank1check_modules()
    tracer.install(mods)
    try:
        return mods["cli"].main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"], mode="a")


if __name__ == "__main__":
    sys.exit(main())
