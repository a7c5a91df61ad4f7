"""Run the divrec command line with every sieve segment of a given length.

    PYTHONPATH=src python .github/segment_harness.py SIZE ARGV...

sets ``divrec.limits.SEGMENT_SIZE`` and ``TOTIENT_SEGMENT_SIZE`` to SIZE,
then runs ``divrec ARGV...`` and exits with its code. The CI steps that
check that output ignores the segment length run it.
"""

import sys

from divrec import cli, limits

limits.SEGMENT_SIZE = limits.TOTIENT_SEGMENT_SIZE = int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
