"""The ``python -m repro`` command-line interface.

Every experiment in the repository — the paper's Table II, the
defect-rate sweep, the redundancy/yield study, Fig. 6, plus any
scenario or suite saved as JSON — runs from one command, and the
adaptive yield-analysis layer (:mod:`repro.analysis`) runs from
another::

    python -m repro run table2 --samples 5 --workers 2 --jsonl out.jsonl
    python -m repro run sweep --engine reference   # object-path ground truth
    python -m repro run my_scenario.json --json
    python -m repro analyze curve --tolerance 0.005
    python -m repro analyze spares --target-yield 0.9
    python -m repro list mappers

``run`` and ``analyze`` stream results into a JSONL artifact store
keyed by the content hash of each spec; an immediate re-run with the
same spec is a cache hit (no recomputation) and ``--force`` recomputes.
``--out`` writes the rendered tables to a file (markdown when it ends
in ``.md``), ``--json`` prints the full machine-readable result to
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

from repro.api.artifacts import ArtifactStore
from repro.api.batch import warm_pool
from repro.api.scenarios import Scenario, ScenarioSuite
from repro.engines import ENGINE_CHOICES, canonical_engine
from repro.exceptions import ExperimentError, ReproError

#: Default artifact-store location when ``--jsonl`` is not given.
DEFAULT_STORE = ".repro/artifacts.jsonl"

#: Default chunk-checkpoint directory of ``repro serve``.
DEFAULT_CHECKPOINTS = ".repro/checkpoints"

#: The experiment targets predeclared by the experiment modules.
BUILTIN_TARGETS = ("table2", "sweep", "redundancy", "figure6", "tradeoff")


def builtin_suites() -> dict[str, Callable[..., ScenarioSuite]]:
    """``{target: paper_suite factory}`` for the predeclared experiments."""
    from repro.experiments import (
        defect_sweep,
        figure6,
        redundancy,
        table2,
        tradeoff,
    )

    return {
        "table2": table2.paper_suite,
        "sweep": defect_sweep.paper_suite,
        "redundancy": redundancy.paper_suite,
        "figure6": figure6.paper_suite,
        "tradeoff": tradeoff.paper_suite,
    }


def resolve_target(target: str) -> ScenarioSuite:
    """Resolve a ``run`` target into a suite.

    Accepted targets: a builtin experiment name (``table2``, ``sweep``,
    ``redundancy``, ``figure6``, ``tradeoff``), a path to a
    scenario/suite JSON file, or the name of one scenario inside a
    builtin suite.
    """
    factories = builtin_suites()
    if target in factories:
        return factories[target]()
    path = Path(target)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            raise ExperimentError(f"no such scenario file: {target}")
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ExperimentError(
                f"cannot read {target} as a scenario/suite JSON file: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ExperimentError(
                f"{target} must contain a JSON object, not "
                f"{type(payload).__name__}"
            )
        try:
            if "scenarios" in payload:
                return ScenarioSuite.from_dict(payload)
            if "source" in payload:
                scenario = Scenario.from_dict(payload)
                return ScenarioSuite(scenario.name, (scenario,))
        except (KeyError, TypeError) as error:
            raise ExperimentError(
                f"{target} is not a valid scenario/suite spec: {error!r}"
            ) from None
        raise ExperimentError(
            f"{target} is neither a scenario (needs a 'source' key) nor a "
            "suite (needs a 'scenarios' key)"
        )
    for factory in factories.values():
        suite = factory()
        for scenario in suite:
            if scenario.name == target:
                return ScenarioSuite(scenario.name, (scenario,))
    raise ExperimentError(
        f"unknown target {target!r}; expected one of {list(BUILTIN_TARGETS)}, "
        "a scenario name from `repro list scenarios`, or a path to a "
        "scenario/suite JSON file"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "mappers":
        from repro.api.registry import list_mappers

        for name in list_mappers():
            print(name)
    elif args.what == "defect-models":
        from repro.api.defect_models import list_defect_models

        for name in list_defect_models():
            print(name)
    else:
        for target, factory in builtin_suites().items():
            suite = factory()
            print(f"{target} ({len(suite)} scenarios)")
            for scenario in suite:
                print(f"  {scenario.describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.runner import run_suite

    suite = resolve_target(args.target)
    suite = suite.with_overrides(
        samples=args.samples, seed=args.seed, tolerance=args.tolerance
    )
    store = ArtifactStore(args.jsonl or DEFAULT_STORE)

    total = len(suite)
    done = 0

    def progress(scenario: Scenario, result) -> None:
        nonlocal done
        done += 1
        status = "cached" if result.cached else f"{result.elapsed_seconds:.2f}s"
        print(
            f"[{done}/{total}] {scenario.name}: {len(result.rows)} rows "
            f"({status}, workers={result.workers})",
            file=sys.stderr,
        )

    results = run_suite(
        suite,
        workers=args.workers,
        engine=canonical_engine(args.engine),
        force=args.force,
        store=store,
        progress=progress,
    )

    if args.out:
        out_path = Path(args.out)
        style = "markdown" if out_path.suffix == ".md" else "monospace"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(results.render(style=style) + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(results.to_dict(), indent=2, sort_keys=True))
    elif not args.out:
        print(results.render())
    return 0


#: Default circuit per ``analyze`` mode (all three are golden-pinned or
#: canonical demo circuits).
ANALYZE_DEFAULT_CIRCUITS = {"yield": "rd53", "curve": "misex1", "spares": "rd53"}

#: Default defect rates swept by ``analyze curve``.
ANALYZE_DEFAULT_RATES = (0.02, 0.05, 0.10, 0.15)


def _parse_floats(text: str, option: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ExperimentError(
            f"{option} expects comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise ExperimentError(f"{option} needs at least one value")
    return values


def _parse_redundancy(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ExperimentError(
            f"--redundancy expects ROWS,COLS, got {text!r}"
        )
    try:
        rows, columns = int(parts[0]), int(parts[1])
    except ValueError:
        raise ExperimentError(
            f"--redundancy expects ROWS,COLS integers, got {text!r}"
        ) from None
    if rows < 0 or columns < 0:
        raise ExperimentError(
            f"--redundancy expects non-negative counts, got {text!r}"
        )
    return rows, columns


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AdaptiveResult,
        SpareSearchResult,
        YieldCurve,
        cached_analysis,
        compute_yield_curve,
        optimize_spares,
        run_adaptive_monte_carlo,
    )
    from repro.circuits.registry import get_benchmark

    circuit = args.circuit or ANALYZE_DEFAULT_CIRCUITS[args.what]
    algorithms = tuple(
        part.strip() for part in args.algorithms.split(",") if part.strip()
    )
    if not algorithms:
        raise ExperimentError(
            f"--algorithms needs at least one mapper name, got "
            f"{args.algorithms!r}"
        )
    if args.what == "spares":
        # The spare search races a single mapper.
        algorithms = algorithms[:1]
    engine = canonical_engine(args.engine)
    tolerance = args.tolerance
    if args.what == "yield" and tolerance is None:
        tolerance = 0.01  # yield mode is always adaptive

    # Mode-specific flags parse with a None default so a flag given to
    # the wrong mode errors instead of being silently ignored (and
    # silently absent from the cache spec).
    def mode_option(value, default, option: str, *modes: str):
        if value is not None and args.what not in modes:
            raise ExperimentError(
                f"{option} only applies to `analyze "
                f"{'/'.join(modes)}`, not `analyze {args.what}`"
            )
        return default if value is None else value

    rate = mode_option(args.rate, 0.10, "--rate", "yield", "spares")
    rates_text = mode_option(args.rates, None, "--rates", "curve")
    redundancy_text = mode_option(
        args.redundancy, "0,0", "--redundancy", "yield"
    )
    multilevel_strategy = mode_option(
        args.multilevel, None, "--multilevel", "yield"
    )
    multilevel = (
        {"strategy": multilevel_strategy} if multilevel_strategy else None
    )
    target_yield = mode_option(
        args.target_yield, 0.9, "--target-yield", "spares"
    )
    criterion = mode_option(args.criterion, "point", "--criterion", "spares")
    max_rows = mode_option(args.max_rows, 6, "--max-rows", "spares")
    max_cols = mode_option(args.max_cols, 6, "--max-cols", "spares")
    mode_option(args.at_yield, None, "--at-yield", "curve")
    # The sampling knobs follow the same errors-not-ignored policy,
    # keyed on adaptive vs fixed-budget rather than on the mode:
    # adaptive runs never read --samples and fixed-budget runs never
    # read --max-samples.
    if args.samples is not None and tolerance is not None:
        raise ExperimentError(
            "--samples only applies to fixed-budget runs; this run is "
            "adaptive (--tolerance), cap it with --max-samples instead"
        )
    if args.max_samples is not None and tolerance is None:
        raise ExperimentError(
            "--max-samples only applies to adaptive runs; set "
            "--tolerance, or use --samples for a fixed budget"
        )
    samples = 200 if args.samples is None else args.samples
    max_samples = 100_000 if args.max_samples is None else args.max_samples
    store = ArtifactStore(args.jsonl or DEFAULT_STORE)

    # The spec carries every parameter that determines the counting
    # statistics and nothing else: no execution detail (workers/engine
    # never change a result, only its wall-clock time) and no inert
    # sampling knob — adaptive runs never read --samples, fixed-budget
    # runs never read --max-samples — so semantically identical
    # invocations hash to the same cached artifact.
    spec = {
        "analyze": args.what,
        "circuit": circuit,
        "algorithms": list(algorithms),
        "tolerance": tolerance,
        "confidence": args.confidence,
        "ci_method": args.ci_method,
        "seed": args.seed,
        "stuck_open_fraction": args.stuck_open_fraction,
    }
    if tolerance is None:
        spec["samples"] = samples
    else:
        spec["max_samples"] = max_samples
    if args.what == "curve":
        rates = (
            _parse_floats(rates_text, "--rates")
            if rates_text
            else ANALYZE_DEFAULT_RATES
        )
        # Canonical order for the cache key: the curve sorts/dedups its
        # rates anyway, so `--rates 0.1,0.05` and `--rates 0.05,0.1`
        # must hash (and cache) identically.
        rates = tuple(sorted({float(rate) for rate in rates}))
        spec["rates"] = list(rates)
    else:
        spec["rate"] = rate
    if args.what == "yield":
        redundancy = _parse_redundancy(redundancy_text)
        spec["redundancy"] = list(redundancy)
        if multilevel is not None:
            spec["multilevel"] = dict(multilevel)
    if args.what == "spares":
        spec.update(
            {
                "target_yield": target_yield,
                "criterion": criterion,
                "max_extra_rows": max_rows,
                "max_extra_columns": max_cols,
            }
        )

    def compute() -> dict:
        if args.what == "yield":
            adaptive = run_adaptive_monte_carlo(
                get_benchmark(circuit),
                tolerance=tolerance,
                confidence=args.confidence,
                method=args.ci_method,
                defect_rate=rate,
                stuck_open_fraction=args.stuck_open_fraction,
                algorithms=algorithms,
                seed=args.seed,
                extra_rows=redundancy[0],
                extra_columns=redundancy[1],
                workers=args.workers,
                engine=engine,
                max_samples=max_samples,
                multilevel=multilevel,
            )
            return {"kind": "adaptive_yield", "result": adaptive.to_dict()}
        if args.what == "curve":
            curve = compute_yield_curve(
                circuit,
                rates=rates,
                tolerance=tolerance,
                samples=samples,
                confidence=args.confidence,
                method=args.ci_method,
                algorithms=algorithms,
                stuck_open_fraction=args.stuck_open_fraction,
                seed=args.seed,
                workers=args.workers,
                engine=engine,
                max_samples=max_samples,
            )
            return {"kind": "yield_curve", "result": curve.to_dict()}
        search = optimize_spares(
            circuit,
            target_yield=target_yield,
            algorithm=algorithms[0],
            defect_rate=rate,
            stuck_open_fraction=args.stuck_open_fraction,
            max_extra_rows=max_rows,
            max_extra_columns=max_cols,
            tolerance=tolerance,
            samples=samples,
            confidence=args.confidence,
            method=args.ci_method,
            criterion=criterion,
            seed=args.seed,
            workers=args.workers,
            engine=engine,
            max_samples=max_samples,
        )
        return {"kind": "spare_search", "result": search.to_dict()}

    payload, cached = cached_analysis(store, spec, compute, force=args.force)
    print(
        f"{args.what} analysis of {circuit}: "
        + ("cached" if cached else "computed"),
        file=sys.stderr,
    )

    if payload["kind"] == "adaptive_yield":
        result = AdaptiveResult.from_dict(payload["result"])
        rendered = result.summary()
    elif payload["kind"] == "yield_curve":
        curve_result = YieldCurve.from_dict(payload["result"])
        rendered = curve_result.render()
        if args.at_yield is not None:
            lines = [rendered, ""]
            for algorithm in curve_result.algorithms:
                rate = curve_result.defect_rate_at_yield(
                    args.at_yield, algorithm
                )
                lines.append(
                    f"defect rate at {args.at_yield:.1%} yield "
                    f"[{algorithm}]: "
                    + (f"{rate:.4f}" if rate is not None else "below sweep")
                )
            rendered = "\n".join(lines)
    else:
        search_result = SpareSearchResult.from_dict(payload["result"])
        rendered = search_result.render() + "\n\n" + search_result.summary()

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.out:
        print(rendered)
    return 0


def _cmd_circuits(args: argparse.Namespace) -> int:
    from repro.circuits.corpus import Corpus

    corpus = Corpus(args.corpus)
    if args.action == "ingest":
        report = corpus.ingest(args.path)
        print(report.render())
        print(f"corpus {corpus.root}: {len(corpus)} circuit(s) registered")
        # Partial success is fine (bad files are reported above); only a
        # run that registered nothing and hit errors fails.
        failed = report.errors and not (report.registered or report.duplicates)
        return 1 if failed else 0
    if args.action == "generate":
        from repro.circuits.scale import generate_corpus

        paths = generate_corpus(args.path, verbose=True)
        print(f"generated {len(paths)} file(s) under {args.path}")
        return 0
    if args.action == "list":
        entries = [corpus.info(name) for name in corpus.names()]
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        if not entries:
            print(f"corpus {corpus.root} is empty; run `repro circuits ingest`")
            return 0
        width = max(len(entry["name"]) for entry in entries)
        for entry in entries:
            print(
                f"{entry['name']:{width}s}  I={entry['inputs']:3d} "
                f"O={entry['outputs']:3d} P={entry['products']:4d} "
                f"lit={entry['literals']:5d}  {entry['hash'][:12]}"
            )
        return 0
    # info
    entry = corpus.info(args.name)
    if args.json:
        print(json.dumps(entry, indent=2, sort_keys=True))
    else:
        for key in sorted(entry):
            print(f"{key:12s} {entry[key]}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.http import make_server
    from repro.service.orchestrator import Orchestrator
    from repro.service.store import CheckpointStore

    orchestrator = Orchestrator(
        CheckpointStore(args.checkpoints or DEFAULT_CHECKPOINTS),
        artifacts=ArtifactStore(args.jsonl or DEFAULT_STORE),
        workers=args.workers,
        engine=canonical_engine(args.engine),
        chunk_size=args.chunk_size,
        chunk_timeout=args.chunk_timeout,
        chunk_retries=args.chunk_retries,
        partial_policy=args.partial_policy,
    )
    server = make_server(
        orchestrator, args.host, args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    # The port line is machine-readable on purpose: scripts (and the CI
    # smoke test) bind --port 0 and parse the ephemeral port from it.
    print(f"repro service listening on http://{host}:{port}", flush=True)

    # Graceful drain: on SIGTERM/SIGINT stop accepting submissions
    # (503 + Retry-After), let in-flight chunks finish and checkpoint,
    # then stop the serve loop.  A second signal skips straight to the
    # hard stop.  The actual work happens on a helper thread — a signal
    # handler must not call server.shutdown() from the serve thread.
    stopping = threading.Event()

    def _drain_and_stop() -> None:
        server.runtime.begin_drain()
        print(
            f"repro service draining (grace {args.drain_grace:.0f}s)",
            flush=True,
        )
        settled = server.runtime.drain(timeout=args.drain_grace)
        print(
            "repro service drained"
            if settled
            else "repro service drain grace expired; exiting anyway",
            flush=True,
        )
        server.shutdown()

    def _handle_signal(signum, frame) -> None:
        if stopping.is_set():
            threading.Thread(target=server.shutdown, daemon=True).start()
            return
        stopping.set()
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _handle_signal)
    signal.signal(signal.SIGINT, _handle_signal)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.runtime.stop()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Declarative experiment runner for the memristive-crossbar "
            "defect-tolerance reproduction: `run` regenerates the paper's "
            "experiments, `analyze` runs the adaptive yield-analysis layer "
            "(CIs, yield curves, spare allocation), `list` enumerates the "
            "registries."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a builtin experiment, a scenario, or a JSON spec file"
    )
    run_parser.add_argument(
        "target",
        help=(
            "one of: "
            + ", ".join(BUILTIN_TARGETS)
            + "; a scenario name (see `repro list scenarios`); or a path to "
            "a scenario/suite JSON file"
        ),
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="batch-engine worker processes (default: auto; 1 = serial)",
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help=(
            "execution engine: 'auto' (default) picks the fastest "
            "available tier (compiled native kernels when a backend is "
            "present, the batched NumPy kernels otherwise); 'compiled', "
            "'vectorized' ('packed' is an alias naming the bit-packed "
            "Boolean kernel the area protocol uses) and the per-sample "
            "'reference' object path select a tier explicitly; all "
            "choices produce identical counting statistics"
        ),
    )
    run_parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="override every scenario's Monte-Carlo sample count",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override every scenario's seed"
    )
    run_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "switch mapping scenarios to adaptive sampling: draw until "
            "every mapper's CI half-width reaches this value (the sample "
            "count becomes the budget ceiling)"
        ),
    )
    run_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help=f"JSONL artifact store (default: {DEFAULT_STORE})",
    )
    run_parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write rendered tables to a file (markdown when it ends in .md)",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result JSON to stdout",
    )
    run_parser.add_argument(
        "--force",
        action="store_true",
        help="recompute even when the artifact store has a cached result",
    )
    run_parser.set_defaults(handler=_cmd_run)

    analyze_parser = subparsers.add_parser(
        "analyze",
        help=(
            "adaptive yield analysis: CI-bounded yield estimates, yield "
            "curves with threshold solving, spare-allocation search"
        ),
    )
    analyze_parser.add_argument(
        "what",
        choices=("yield", "curve", "spares"),
        help=(
            "yield: adaptive CI-bounded yield of one circuit; curve: "
            "yield vs defect rate with interpolated thresholds; spares: "
            "minimum-area spare allocation meeting a yield target"
        ),
    )
    analyze_parser.add_argument(
        "--circuit",
        default=None,
        help=(
            "benchmark circuit (defaults per mode: "
            + ", ".join(
                f"{mode}={name}"
                for mode, name in sorted(ANALYZE_DEFAULT_CIRCUITS.items())
            )
            + ")"
        ),
    )
    analyze_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "adaptive CI half-width target (e.g. 0.005 = +/-0.5%%); "
            "omit for a fixed --samples budget per point "
            "(analyze yield always samples adaptively, default 0.01)"
        ),
    )
    analyze_parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="two-sided CI confidence level (default: 0.95)",
    )
    analyze_parser.add_argument(
        "--ci-method",
        choices=("wilson", "jeffreys"),
        default="wilson",
        help="binomial interval method (default: wilson)",
    )
    analyze_parser.add_argument(
        "--algorithms",
        default="hybrid,exact",
        help=(
            "comma-separated mapper registry names (default: hybrid,exact; "
            "spares uses the first)"
        ),
    )
    analyze_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="defect rate for yield/spares (default: 0.10)",
    )
    analyze_parser.add_argument(
        "--rates",
        default=None,
        help=(
            "comma-separated defect rates for curve (default: "
            + ",".join(f"{rate:g}" for rate in ANALYZE_DEFAULT_RATES)
            + ")"
        ),
    )
    analyze_parser.add_argument(
        "--stuck-open-fraction",
        type=float,
        default=1.0,
        help=(
            "fraction of defects stuck-open (default: 1.0, the paper's "
            "protocol; lower it to mix in stuck-closed defects)"
        ),
    )
    analyze_parser.add_argument(
        "--redundancy",
        default=None,
        metavar="ROWS,COLS",
        help="spare lines for analyze yield (default: 0,0)",
    )
    analyze_parser.add_argument(
        "--multilevel",
        default=None,
        metavar="STRATEGY",
        help=(
            "analyze yield of the staged multi-level realisation instead "
            "of the two-level array, technology-mapped with this strategy "
            "(two_level_nand, factored or best); spare rows are then "
            "granted per stage bank"
        ),
    )
    analyze_parser.add_argument(
        "--target-yield",
        type=float,
        default=None,
        help="yield target for analyze spares (default: 0.9)",
    )
    analyze_parser.add_argument(
        "--criterion",
        choices=("point", "lower"),
        default=None,
        help=(
            "spares acceptance: point estimate or CI lower bound reaches "
            "the target (default: point)"
        ),
    )
    analyze_parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="spare-row search bound for analyze spares (default: 6)",
    )
    analyze_parser.add_argument(
        "--max-cols",
        type=int,
        default=None,
        help="spare-column search bound for analyze spares (default: 6)",
    )
    analyze_parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="fixed per-point budget when --tolerance is not set (default: 200)",
    )
    analyze_parser.add_argument(
        "--max-samples",
        type=int,
        default=None,
        help="adaptive per-point budget ceiling (default: 100000)",
    )
    analyze_parser.add_argument(
        "--at-yield",
        type=float,
        default=None,
        help="also solve the curve for the defect rate at this yield",
    )
    analyze_parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default: 0)"
    )
    analyze_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="batch-engine worker processes (default: auto; 1 = serial)",
    )
    analyze_parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine (identical statistics, different speed)",
    )
    analyze_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help=f"JSONL artifact store (default: {DEFAULT_STORE})",
    )
    analyze_parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the rendered report to a file",
    )
    analyze_parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result JSON to stdout",
    )
    analyze_parser.add_argument(
        "--force",
        action="store_true",
        help="recompute even when the artifact store has a cached result",
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "start the HTTP job service: submit scenarios over HTTP, "
            "shard them into checkpointed chunk jobs, resume interrupted "
            "campaigns, share one artifact cache across clients"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (default: 8750; 0 = ephemeral, printed on start)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="chunk-executor worker processes (default: auto)",
    )
    serve_parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help=(
            "execution engine for chunk jobs (identical statistics; "
            "'auto' resolves per executing machine and cross-engine "
            "checkpoints merge)"
        ),
    )
    serve_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "samples per chunk job (default: auto, derived from each "
            "scenario's sample count — never from the local CPU count, so "
            "checkpoints resume across machines)"
        ),
    )
    serve_parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-chunk wall-clock deadline; a timed-out chunk counts as a "
            "transient failure and is retried (default: no deadline)"
        ),
    )
    serve_parser.add_argument(
        "--chunk-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "extra dispatches granted to a transiently failing chunk "
            "(worker death, broken pool, OS error, timeout) before it is "
            "quarantined (default: 2)"
        ),
    )
    serve_parser.add_argument(
        "--partial-policy",
        choices=("fail", "partial"),
        default="fail",
        help=(
            "what a quarantined chunk does to its job: 'fail' (default) "
            "fails the job naming the chunk; 'partial' completes the job "
            "from the surviving sample ranges and records the quarantined "
            "ranges on the job status (partial results are never cached)"
        ),
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, how long to wait for in-flight chunks to "
            "finish and checkpoint while answering new submissions with "
            "503 + Retry-After (default: 30)"
        ),
    )
    serve_parser.add_argument(
        "--checkpoints",
        metavar="DIR",
        default=None,
        help=f"chunk-checkpoint directory (default: {DEFAULT_CHECKPOINTS})",
    )
    serve_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help=f"shared JSONL artifact store (default: {DEFAULT_STORE})",
    )
    serve_parser.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    circuits_parser = subparsers.add_parser(
        "circuits",
        help=(
            "manage the benchmark corpus: bulk-ingest .pla directories by "
            "content hash, list/inspect registered circuits, regenerate "
            "the synthetic scale corpus"
        ),
    )
    circuits_sub = circuits_parser.add_subparsers(dest="action", required=True)

    ingest_parser = circuits_sub.add_parser(
        "ingest",
        help="register a .pla file or every .pla under a directory",
    )
    ingest_parser.add_argument("path", help="a .pla file or a directory")

    generate_parser = circuits_sub.add_parser(
        "generate",
        help=(
            "write the default synthetic scale corpus (random-PLA and "
            "layered families, hundreds of rows, seed-stable) into a "
            "directory, ready for `circuits ingest`"
        ),
    )
    generate_parser.add_argument("path", help="output directory")

    circuits_list_parser = circuits_sub.add_parser(
        "list", help="list registered corpus circuits with statistics"
    )
    circuits_list_parser.add_argument(
        "--json", action="store_true", help="print the index entries as JSON"
    )

    info_parser = circuits_sub.add_parser(
        "info", help="show one circuit's index entry (hash, source, stats)"
    )
    info_parser.add_argument("name", help="registered circuit name")
    info_parser.add_argument(
        "--json", action="store_true", help="print the entry as JSON"
    )

    for sub in (
        ingest_parser,
        generate_parser,
        circuits_list_parser,
        info_parser,
    ):
        sub.add_argument(
            "--corpus",
            metavar="DIR",
            default=None,
            help=(
                "corpus directory (default: $REPRO_CORPUS or .repro/corpus)"
            ),
        )
    circuits_parser.set_defaults(handler=_cmd_circuits)

    list_parser = subparsers.add_parser(
        "list", help="enumerate registered mappers, defect models or scenarios"
    )
    list_parser.add_argument(
        "what", choices=("mappers", "defect-models", "scenarios")
    )
    list_parser.set_defaults(handler=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every batch of the command shares one process pool, which is
        # shut down when the command returns or raises.
        with warm_pool():
            return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
