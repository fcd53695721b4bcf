"""Run ``divknn run`` as the ``divknn`` console script does, then record the
process's own peak resident memory, when the run ended and the machine's
speed as this process sees it.

    python3 perfbench/cli_child.py <report.json> run --base ... --out ...

The report holds ``peak_kb``, VmHWM from /proc/self/status in kB (the
rusage of a child, ``ru_maxrss``, is no use here: it keeps the high-water
mark of the parent's memory image that the child held until exec); ``end``,
``time.perf_counter()`` when ``divknn run`` returned; and ``probes``, the
times of calibration probes taken after it (see ``calib.py``).
"""

import json
import sys
import time

from divknn.cli import main

import calib

def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    status = main(sys.argv[2:])
    end = time.perf_counter()
    report = {"peak_kb": peak_kb(), "end": end}
    cal = calib.Calibrator()
    cal.probes()
    report["probes"] = cal.times
    with open(sys.argv[1], "w", encoding="ascii") as f:
        json.dump(report, f)
    sys.exit(status)
