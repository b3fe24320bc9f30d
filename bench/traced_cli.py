"""Run one entclone CLI command in this interpreter with every layer traced.

    python3 bench/traced_cli.py DUMP_PATH REQUEST_ID ARGV...

Behaves like ``python -m entclone.cli ARGV...`` (same stdout, stderr and
exit status) and writes the spans, counters and the import time of
``entclone.cli`` to DUMP_PATH as JSON. ``src`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    dump_path, rid, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = perf_counter()
    import entclone.cli
    import_s = perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.rid = rid
    with tracing.installed(tracer):
        code = entclone.cli.main(argv)
    sys.stdout.flush()
    Path(dump_path).write_text(json.dumps({"import_s": import_s,
                                           **tracer.dump()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
