"""Run a command in a child process and print its peak resident set in MB.

Usage: python peak_rss.py COMMAND [ARG ...]

The figure is the child's ru_maxrss (with every descendant it waited for),
so one command is measured per call.  The command's stdout is discarded and
a nonzero exit fails the script.
"""

import resource
import subprocess
import sys

subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.1f}")
