"""Traced ``swipt-mac`` process: times the package import, runs the CLI
under the tracer and writes the trace to a JSON file.

    python3 perfbench/cli_child.py TRACE_JSON COMMAND [ARGS...]

Standard output and the exit code are the CLI's own.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import swipt_mac  # noqa: E402
from swipt_mac import cli  # noqa: E402

import_s = time.perf_counter() - t0
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

out_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer().install(swipt_mac)
tracer.op_id = 0
t1 = time.perf_counter()
try:
    rc = cli.main(argv)
finally:
    main_s = time.perf_counter() - t1
    tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "main_s": main_s,
            "stats": tracer.summary(),
            "durations": tracer.durations(),
        }, fh)
sys.exit(rc)
