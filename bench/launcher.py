"""Traced stand-in for `python -m symphot`, used by the cold-cli traced run.

    python3 bench/launcher.py SPANS_FILE OP_ID <symphot CLI arguments...>

Times the import of symphot.cli as a `process.import` span, installs the
benchmark's wrappers, runs symphot.cli.main with the remaining arguments and
exits with its code.  SPANS_FILE gets one JSON header line (the expansion
cache size at exit) followed by one line per span.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter_ns()
    from symphot import cli
    end = time.perf_counter_ns()
    import tracer as tracing  # after the timed import, which must pay for numpy itself

    tracer = tracing.Tracer()
    tracer.op_id = op_id
    tracer.spans.append(["process.import", start, end, -1, op_id, 0, None])
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        tracing.write_spans(spans_path, tracer.spans,
                            {"cache_entries": tracing.expansion_cache_entries()})


if __name__ == "__main__":
    sys.exit(main())
