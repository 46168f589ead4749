"""Set-up probe run in a fresh process: import mpglearn, load the config
given as the only argument, build its environment, then print the system
monotonic clock in nanoseconds so the parent can time set-up from process
start.

    python3 bench/setup_probe.py configs/scg4.ini
"""

import sys
import time

import bootstrap

bootstrap.prepare()
from mpglearn import cli  # noqa: E402  (after the import path is set)

cli.build_environment(cli.load_config(sys.argv[1]).environment)
print(time.monotonic_ns())
