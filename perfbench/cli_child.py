"""Traced stand-in for `python -m bandforge.cli ARGS` (the traced cli-cold run).

Times `import bandforge.cli` and the in-process `cli.main(ARGS)`, with
spans around the CLI's calls into the other modules, and appends the
spans to stderr after a marker line.  The exit code is main's.
"""

import time

STARTED = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from spans import SPAN_MARKER, Tracer  # noqa: E402


def run(argv):
    tracer = Tracer()
    tracer.begin_op(0)
    idx = tracer.open("cli.import")
    import bandforge.cli
    tracer.close(idx)
    tracer.end_op()
    tracer.install()
    tracer.begin_op(0)
    idx = tracer.open("cli.main")
    try:
        code = bandforge.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    tracer.close(idx)
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARKER + json.dumps(
        {"started": STARTED, "spans": tracer.spans,
         "present": sorted(tracer.present)}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
