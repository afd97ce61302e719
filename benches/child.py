"""Fresh-interpreter measurements, printed as one JSON line.

    python3 benches/child.py import           set-up: time `import erp_lab.cli`
    python3 benches/child.py run ARGV.json    import erp_lab.cli, run main once

``import`` reports the import time and the reference passes around it;
``run`` reports the exit code and peak resident memory.  Peak memory is
VmHWM, the high-water mark of this process's own address space; getrusage's
ru_maxrss is not used because Linux carries the parent's peak across fork
and exec into it.
"""

import json
import sys
import time

from reference import reference_s


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if sys.argv[1] == "import":
    before = reference_s()
    start = time.perf_counter()
    import erp_lab.cli  # noqa: F401
    seconds = time.perf_counter() - start
    print(json.dumps({"import_s": seconds, "before": before, "after": reference_s()}))
else:
    from erp_lab import cli

    with open(sys.argv[2], encoding="utf-8") as fh:
        code = cli.main(json.load(fh))
    print(json.dumps({"exit": code, "peak_rss_kb": peak_rss_kb()}))
