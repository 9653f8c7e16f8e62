"""Run one command and append its wall time and peak RSS as a Markdown table
row: ``python3 .github/measured.py LABEL TABLE -- COMMAND...``.

The peak is the child's ``ru_maxrss`` from ``getrusage(RUSAGE_CHILDREN)``,
so no external ``time`` binary is needed.  Exits with the command's status.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    label, table, sep, *command = argv
    if sep != "--" or not command:
        sys.exit("usage: measured.py LABEL TABLE -- COMMAND...")
    start = time.perf_counter()
    status = subprocess.call(command)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux
    with open(table, "a", encoding="ascii") as fh:
        fh.write(f"| {label} | {wall:.2f} s | {peak_mb:.0f} MB |\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
