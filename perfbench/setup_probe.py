"""Time one workload's set-up in a fresh interpreter.

Prints the seconds from just after interpreter start to the moment the
workload's item pool is built: `import pnkit`, parsing the generated
configs and building the library inputs.  run.py starts this several
times and reports the median as `setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD SEED [--tiny]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pnkit  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), "--tiny" in sys.argv[3:])
print(repr(time.perf_counter() - START))
