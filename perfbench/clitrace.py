"""Run one `ospart` command under the tracer (the traced cli-cold pass).

    python3 perfbench/clitrace.py OUT.json ARGV...

Stdout and the exit code are those of `ospart ARGV...`; the per-layer
totals and the kept spans go to OUT.json.  PYTHONPATH must name the
ospart sources, as for `python -m ospart.cli`.
"""

import json
import sys

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import ospart.cli as cli
    # a stream runs dozens of these, so each keeps fewer spans
    tracer = Tracer(span_cap=10_000).install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.stop()
        summary = tracer.summary()
        summary["spans"] = list(tracer.span_rows())
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
