"""Report a process's own peak resident set size on stderr when it exits.

    python3 perfbench/peak_rss.py heronian verify --claim all

runs `python3 -m heronian verify --claim all` in this process and, at exit,
writes `peak-rss-kb <n>` to stderr. The figure is VmHWM of the process's
own memory image. The ru_maxrss a parent gets from wait4 is not used,
because on Linux it also counts the parent's resident pages at fork time.
"""

from __future__ import annotations

import atexit
import resource
import runpy
import sys

MARKER = "peak-rss-kb"


def _report() -> None:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
    except OSError:
        pass
    sys.stderr.write(f"{MARKER} {kb}\n")


def install() -> None:
    atexit.register(_report)


if __name__ == "__main__":
    install()
    module = sys.argv[1]
    sys.argv = [module, *sys.argv[2:]]
    runpy.run_module(module, run_name="__main__", alter_sys=True)
