"""`python3 perfbench/clitrace.py <dpbc arguments>`: run the dpbc command
line with the layer boundaries traced, then write the span summary to
the file named by PERFBENCH_TRACE_OUT.  Used by the traced cli pass."""

import json
import os
import sys

import spans


def main():
    import dpbc.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    code = 0
    try:
        dpbc.cli.main(args=sys.argv[1:], prog_name="dpbc", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
