"""One set-up of a benchmark process, timed by the process that starts it.

  python3 bench/probe.py <code selector>...

Imports qauth (which pulls numpy and scipy) from the checkout's src/,
resolves every code given, and prints ``time.monotonic()`` at that point:
the moment a workload would make its first timed call.  The parent
subtracts its own monotonic clock reading taken just before the start.
"""

import sys
import time

from workloads import import_qauth

if __name__ == "__main__":
    qauth = import_qauth()
    for selector in sys.argv[1:]:
        qauth.cli.resolve_code(selector)
    print(repr(time.monotonic()))
