"""Time one workload's set-up in this fresh process and print the seconds.

    python3 perfbench/setup_probe.py <workload>

Set-up is ``import richwave``, loading the workload's scenarios and building
their solutions (the Z0/X0/primitive tables).  ``run.py`` starts this
script several times and reports the median as ``setup_s``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

if __name__ == "__main__":
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    # Query generation is not set-up: keep it out of the timed interval.
    wl = workloads.WORKLOADS[sys.argv[1]](0, None)
    t2 = time.perf_counter()
    wl.build()
    print("%.9f" % (time.perf_counter() - t2 + t1 - t0))
