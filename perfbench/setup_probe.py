"""Set-up time of a fresh interpreter, printed in seconds.

Times ``import repro``, the first system build of the given scenario
factory (``Scenario.build_harvester``) and the resolution and construction
of the ``compiled="auto"`` march kernel::

    PYTHONPATH=src python3 perfbench/setup_probe.py charging_scenario
"""

import sys
import time

start = time.perf_counter()

import repro  # noqa: E402
from repro.core.kernels import get_march_kernel, resolve_compiled  # noqa: E402

getattr(repro, sys.argv[1])().build_harvester()
get_march_kernel(resolve_compiled("auto"))
print(time.perf_counter() - start)
