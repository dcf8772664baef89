"""Set-up probe: one fresh interpreter imports lifsim and prepares a workload.

    python3 perfbench/probe.py <workload> <seed>

run from the repository root. Prints one JSON line with `import_s` (import
of lifsim and its CLI module) and `configs_s` (the workload's prepare()).
The benchmark runs several probes per run and reports their median.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import lifsim.cli  # noqa: F401  (imports lifsim and scipy)
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS
    t1 = time.perf_counter()
    WORKLOADS[name].prepare(seed)
    configs_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "configs_s": configs_s}))


if __name__ == "__main__":
    main()
