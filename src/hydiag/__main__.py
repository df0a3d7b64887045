"""The process entry of ``python -m hydiag`` and of the ``hydiag`` script.

A command runs without the cycle collector and exits without collecting
what it built.  That is safe because no layer leaves a reference cycle
per model, estimate or event, so the garbage that only the collector
could free stays bounded.  ``hydiag.cli.main`` never touches the
collector.
"""

import gc
import os
import sys


def entry():
    """Run ``hydiag.cli.main`` and return the process's exit status."""
    gc.disable()
    from .cli import EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, main

    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away.  The interpreter flushes stdout
        # again as it exits, which on the null device neither fails nor
        # reports.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        # Ctrl-C: what was written stays written, with no traceback.
        status = EXIT_INTERRUPTED
    # The final collection at teardown skips frozen objects.
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
