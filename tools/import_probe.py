"""Report what importing the CLI costs a fresh process.

Run from the repository root::

    PYTHONPATH=src python -m tools.import_probe

It prints the median wall time of five fresh ``python -c "import
repro.cli"`` processes and the number of ``repro`` modules that import
loads.  Every ``resim`` command and every queue worker pays this before
it simulates anything.  The numbers are a report, not a gate.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

RUNS = 5

COUNT = ("import sys, repro.cli; "
         "print(sum(1 for name in sys.modules "
         "if name == 'repro' or name.startswith('repro.')))")


def main() -> int:
    timings = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       check=True)
        timings.append(time.perf_counter() - start)
    modules = subprocess.run([sys.executable, "-c", COUNT], check=True,
                             capture_output=True, text=True).stdout.strip()
    print(f"import repro.cli: median {1000 * statistics.median(timings):.0f} "
          f"ms of {RUNS} processes; {modules} repro modules loaded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
