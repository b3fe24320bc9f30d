"""Time one fresh interpreter's set-up for a workload.

    python3 bench/probe.py WORKLOAD

Prints ``{"import_s": ..., "setup_s": ..., "speed": ...}``: the import of
``entclone.cli`` (the whole package); that import plus the workload's first
request, which pays every lazy set-up the request path has; and the host
speed just after (see hostspeed.py). ``src`` must be on PYTHONPATH.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    import entclone.cli  # noqa: F401
    import_s = perf_counter() - t0

    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]()
    t1 = perf_counter()
    workload.warmup()
    warmup_s = perf_counter() - t1

    import hostspeed

    speed = hostspeed.speed(hostspeed.kernel_s(), hostspeed.kernel_s())
    print(json.dumps({"import_s": import_s, "setup_s": import_s + warmup_s,
                      "speed": speed}))


if __name__ == "__main__":
    main()
