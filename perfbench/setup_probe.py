"""Set-up probe: import trispectral and run one warm-up command, timed.

run.py starts this script several times, each in a fresh interpreter, and
reports the median as `setup_s`:

    python3 perfbench/setup_probe.py <repo>/src <k3-edge-list>

The last line of its stdout is the set-up time in seconds.
"""

import sys
import time


def timed_setup(src: str, warmup_edges: str):
    """Import `trispectral.cli` from `src` and run `spectrum` on the warm-up input.

    Returns (seconds, cli module).  Raises RuntimeError when the package does
    not come from `src` or the warm-up command fails.
    """
    import io
    import os

    start = time.perf_counter()
    sys.path.insert(0, src)
    from trispectral import cli

    real_stdout = sys.stdout
    sys.stdout = io.StringIO()
    try:
        status = cli.main(["spectrum", warmup_edges])
    finally:
        sys.stdout = real_stdout
    elapsed = time.perf_counter() - start
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if package_dir != os.path.abspath(src):
        raise RuntimeError(f"trispectral was imported from {package_dir}, not from {src}")
    if status != 0:
        raise RuntimeError(f"warm-up command exited {status}")
    return elapsed, cli


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1], sys.argv[2])
    print(repr(seconds))
