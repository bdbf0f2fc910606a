"""Set-up probe: in a fresh interpreter, import swipt_mac and build one
workload's inputs; print the two CPU times (user + system seconds) as JSON.

    python3 perfbench/probe.py WORKLOAD SEED CYCLES
"""

import json
import os
import sys
import time

t0 = time.process_time()
import swipt_mac  # noqa: E402,F401

t_import = time.process_time()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
t1 = time.process_time()
print(json.dumps({"import_s": t_import - t0, "setup_s": t1 - t0}))
