"""One set-up sample: a fresh interpreter imports the program and runs one CLI call.

    python3 perfbench/probe.py <command> <config.json> <out-dir>

The last line of standard output is ``{"code": <exit code>, "end": <time.time()>}``;
the parent subtracts the wall-clock time at which it started this process.
Nothing but the standard library and the program is imported, so the
measured set-up is the program's own.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from angelesco import cli  # noqa: E402


def main(command, config, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([command, "--config", config, "--out", out])
    print(json.dumps({"code": code, "end": time.time()}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
