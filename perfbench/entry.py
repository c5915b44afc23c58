"""The posetkernel command line, launched as its console script does.

    python3 perfbench/entry.py <posetkernel arguments>

With PERFBENCH_TRACE_OUT set, the layer wrappers of spans.py are installed
first and this process's per-layer totals are written to that file at exit,
also when the command ends in an uncaught exception.
"""

import json
import os

TRACE_ENV = "PERFBENCH_TRACE_OUT"


def main():
    out = os.environ.get(TRACE_ENV)
    tracer = None
    if out:
        import spans
        tracer = spans.install()
    from posetkernel.cli import console_entry

    try:
        console_entry()
    finally:
        if tracer is not None:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(tracer.totals(), handle)


if __name__ == "__main__":
    main()
