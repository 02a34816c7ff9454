"""Run one pollheap CLI invocation, as the ``pollheap`` console script does.

    python3 launch.py [--trace TRACE_DIR RUN_ID] -- <pollheap arguments>

Untraced, this is exactly the console entry point ``pollheap.cli:main``.
With ``--trace``, the layers are wrapped first (see tracing.py) and the
spans of this process and of its forked workers land in TRACE_DIR.
"""

import sys


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    if not opts:
        from pollheap.cli import main as cli_main

        return cli_main(cli_args)
    if opts[0] != "--trace" or len(opts) != 3:
        raise SystemExit("usage: launch.py [--trace TRACE_DIR RUN_ID] -- ARGS...")
    import tracing

    tracer, traced_main = tracing.install(opts[1], opts[2])
    try:
        return traced_main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
