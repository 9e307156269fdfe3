"""Fresh-interpreter target for the set-up time: imports fockfit from the
source tree given as the first argument and runs one CLI command.

    python3 bench/setup_probe.py <src-dir> <fockfit CLI arguments...>
"""

import sys

sys.path.insert(0, sys.argv[1])

from fockfit.cli import main  # noqa: E402

sys.exit(main(sys.argv[2:]))
