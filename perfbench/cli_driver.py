"""Traced stand-in for ``python -m dtmech``.

Usage: ``python perfbench/cli_driver.py SPANS_PATH [dtmech arguments...]``

Times the imports (numpy/scipy apart from dtmech's own), wraps the traced
functions, calls ``dtmech.cli.main`` and exits with its return code, like
the real entry point.  The spans and import times go to ``SPANS_PATH`` as
one JSON document when the command ends.
"""
import json
import sys

from tracing import Tracer, timed_import_dtmech


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    imports = timed_import_dtmech()
    tracer = Tracer()
    tracer.install()
    import dtmech.cli

    try:
        code = dtmech.cli.main(argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"imports": imports, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
