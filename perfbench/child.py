"""Measurements that need a fresh interpreter; run by run.py, one JSON line out.

Times are CPU seconds of this process (see run.cpu_clock).

    python perfbench/child.py setup <workload> <seed>
        import vortexbell, then build the workload's reusable objects
    python perfbench/child.py cold
        import vortexbell, then one cold moments((40, 20)) table
"""

import json
import sys
import time

t_start = time.process_time()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import vortexbell  # noqa: E402

t_import = time.process_time()

if sys.argv[1] == "setup":
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[2]].build(int(sys.argv[3]), HERE.parent)
    result = {"import_s": t_import - t_start, "setup_s": time.process_time() - t_start}
else:
    vortexbell.moments((40, 20))
    result = {"import_s": t_import - t_start,
              "moments_cold_ms": (time.process_time() - t_import) * 1e3}
print(json.dumps(result))
