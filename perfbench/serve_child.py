"""Start ``fabp-repro serve`` after reporting when the imports finished.

Usage: ``python3 serve_child.py TIMESTAMP_FILE SERVE_ARGS...``.  The
monotonic clock reading written to ``TIMESTAMP_FILE`` lets the parent
exclude interpreter start and imports from the measured set-up time.
"""

import sys
import time

from repro.cli import main

if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        handle.write(repr(time.monotonic()))
    sys.exit(main(["serve", *sys.argv[2:]]))
