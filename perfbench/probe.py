"""Time one CLI invocation's set-up in a fresh interpreter.

    python3 probe.py <pollheap arguments>

Times ``import pollheap.cli`` and then the public calls the CLI makes
before its Monte Carlo loop: ``load_dataset`` for every input,
``apply_filters`` where the command filters, and ``make_sampler`` for
every (input, metric) the invocation simulates.  The arguments are
parsed with the CLI's own parser.  Prints one JSON line.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import pollheap
    import pollheap.cli as cli
    from pollheap.ingest import load_dataset
    from pollheap.model import FilterPolicy, apply_filters
    from pollheap.sampling import make_sampler

    t_import = time.perf_counter() - t0

    args = cli.build_parser().parse_args(sys.argv[1:])
    inputs = args.input if isinstance(args.input, list) else [args.input]
    filtered = args.command != "validate" and not args.no_filter
    metrics: tuple[str, ...] = ()
    if args.command in ("analyze", "regions"):
        metrics = ("turnout", "result")
    elif args.command in ("spectrum", "histogram") and args.iterations:
        metrics = ("turnout", "result") if args.metric == "both" else (args.metric,)

    t_load = t_filter = t_build = 0.0
    for path in inputs:
        t = time.perf_counter()
        dataset, _ = load_dataset(path, args.profile)
        t_load += time.perf_counter() - t
        if filtered:
            t = time.perf_counter()
            dataset = apply_filters(
                dataset,
                FilterPolicy(
                    min_registered=args.min_registered,
                    max_percentage=args.max_percent,
                    exclude_undefined_result=not args.keep_undefined_result,
                ),
            )
            t_filter += time.perf_counter() - t
        for metric in metrics:
            den, num = (
                (dataset.registered, dataset.given)
                if metric == "turnout"
                else (dataset.cast, dataset.leader)
            )
            t = time.perf_counter()
            sampler = make_sampler(den, num, args.model, metric)
            t_build += time.perf_counter() - t
            del sampler

    print(json.dumps({
        "import_s": t_import,
        "load_s": t_load,
        "filter_s": t_filter,
        "build_s": t_build,
        "setup_s": t_import + t_load + t_filter + t_build,
        "pollheap_file": pollheap.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
