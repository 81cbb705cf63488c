"""Run trackfuse command lines in a fresh interpreter and measure their memory.

    PYTHONPATH=src python3 perfbench/peak.py '[["merge", "-i", "a.txt", "-o", "f.txt"]]'

Runs each command line of the JSON list in turn, in this process, and
prints one JSON object: the exit codes, the standard outputs, and by how
many bytes the calls raised the process's peak resident set above the
resident set it had after importing ``trackfuse.cli``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys

from trackfuse import cli


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main() -> int:
    argvs = json.loads(sys.argv[1])
    gc.collect()
    base = resident_bytes()
    codes, stdouts = [], []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(argv))
        stdouts.append(out.getvalue())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    print(json.dumps({"codes": codes, "stdouts": stdouts, "peak_bytes": peak - base}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
