"""Starts the benchmark's child processes from a process that stays small.

Linux carries a process's peak RSS into a child at exec, so a child started
from a worker that has grown to a gigabyte reports that gigabyte as its own
peak.  A worker therefore starts this process first, while it is still
small, and has it start every child.

Protocol: one JSON request per line on stdin, {"cmd", "env", "cwd",
"timeout"}; one JSON reply per line on stdout, {"code", "stdout", "stderr",
"children_peak_mb"}, where the last field is the largest peak RSS of any
child started so far.  The process exits when stdin closes.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        try:
            proc = subprocess.run(req["cmd"], cwd=req["cwd"], env=req["env"],
                                  capture_output=True, text=True,
                                  timeout=req["timeout"])
            reply = {"code": proc.returncode, "stdout": proc.stdout,
                     "stderr": proc.stderr}
        except subprocess.TimeoutExpired as e:
            reply = {"code": None, "stdout": "", "stderr": f"timed out: {e}"}
        except OSError as e:
            reply = {"code": None, "stdout": "", "stderr": f"could not start: {e}"}
        # ru_maxrss is in KiB on Linux.
        reply["children_peak_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
