"""Child process for one ``monocal`` command, timed from inside.

Usage: ``python3 perfbench/child.py TIMING_PATH [monocal CLI args...]``. With
no CLI args it only imports ``monocal.cli`` (the set-up measurement).

Runs what the ``monocal`` console script runs, ``monocal.cli.main(args)``,
and times the import plus the command from inside the process, so that
interpreter start-up stays out of the figure. The machine-speed probe runs
just before and just after (see probe.py). Writes ``{"seconds", "probe"}`` as
JSON to TIMING_PATH and exits with the command's exit code.
"""

import json
import sys
import time

from probe import probe_seconds


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    before = probe_seconds()
    start = time.perf_counter()
    from monocal import cli

    code = cli.main(argv) if argv else 0
    sys.stdout.flush()
    seconds = time.perf_counter() - start
    probe = (before + probe_seconds()) / 2
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds, "probe": probe}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
