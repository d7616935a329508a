"""Traced stand-in for ``python -m repro``: one CLI invocation with the
benchmark's span wrappers installed.

Usage::

    python perfbench/cli_driver.py SPANS_FILE -- synth fir -l 10 -a 9

Runs ``repro.cli.main(argv)`` exactly as ``python -m repro`` would,
then writes the recorded spans, counters and the default engine's
statistics to *SPANS_FILE* as JSON for the parent benchmark to merge.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_file, separator, *argv = sys.argv[1:]
    if separator != "--":
        print("usage: cli_driver.py SPANS_FILE -- ARGS...", file=sys.stderr)
        return 2
    from tracer import Tracer, install

    tracer = Tracer()
    tracer.enabled = True
    import_frame = tracer.begin("cli", "import")
    import repro.cli
    from repro.core import default_engine
    tracer.end(import_frame)
    install(tracer)
    root = tracer.begin("cli", "main")
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.end(root)
        tracer.enabled = False
        data = tracer.export()
        data["engine"] = default_engine().stats.as_dict()
        with open(spans_file, "w") as fh:
            json.dump(data, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
