"""Time one benchmark set-up in a fresh process and print the seconds.

run.py starts this to take more than one set-up sample per run.
"""

import sys

from run import timed_setup

if __name__ == "__main__":
    seconds, _ = timed_setup()
    print(repr(seconds))
    sys.exit(0)
