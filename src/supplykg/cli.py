"""Command line interface.

One executable, seven subcommands::

    supplykg generate --preset automotive --seed 7 --out graph.nt
    supplykg simulate --graph graph.nt --horizon 178 --out report.csv
    supplykg query    --graph graph.nt orders.rq --param t=7
    supplykg report   --graph graph.nt --t 0
    supplykg sweep    --scenarios sweep.cfg --seed 7 --out sweep.csv
    supplykg validate --graph graph.nt
    supplykg export   --graph old.nt --out canonical.nt

Exit codes: 0 success, 1 usage or file error, 2 data error (parse,
validation, or evaluation failure). Diagnostics go to stderr; data goes
to stdout or to the file named by ``--out``. Output files are written
atomically, so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .analytics import (
    build_report,
    report_csv,
    run_scenarios,
    scenario_csv,
    scenario_plot_data,
)
from .fulfillment import Simulation
from .generator import (
    PRESETS,
    generate,
    parse_config_file,
    parse_scenario_file,
    with_updates,
)
from .query import (
    InsertWhereQuery,
    QueryEvalError,
    SelectQuery,
    evaluate,
    evaluate_update,
    parse_query,
)
from .schema import load_graph
from .serialization import GraphParseError, parse_term, serialize
from .util import atomic_write_text
from .validation import validate


class UsageError(Exception):
    """A bad invocation: unknown flag, missing argument, malformed value."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for data errors, so usage problems are raised and mapped to 1.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="supplykg",
        description="Generate, simulate, query, and score synthetic supply-chain knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("generate", help="generate a synthetic supply-chain graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in industry preset")
    source.add_argument("--config", metavar="FILE", help="generator config file")
    p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config field (repeatable)",
    )
    p.add_argument("--out", metavar="FILE", help="output graph file (default stdout)")

    p = sub.add_parser("simulate", help="run demand fulfillment over a graph")
    p.add_argument("--graph", required=True, metavar="FILE", help="input graph file")
    p.add_argument("--horizon", required=True, type=int, metavar="N", help="number of timesteps")
    p.add_argument("--out", metavar="FILE", help="per-step CSV report (default stdout)")
    p.add_argument("--final-graph", metavar="FILE", help="write the post-simulation graph here")

    p = sub.add_parser("query", help="evaluate a query against a graph")
    p.add_argument("--graph", required=True, metavar="FILE", help="input graph file")
    p.add_argument("queryfile", nargs="?", metavar="QUERYFILE", help="query text file (default stdin)")
    p.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="NAME=TERM",
        help="bind a runtime parameter (repeatable)",
    )
    p.add_argument("--out", metavar="FILE", help="SELECT: CSV file; INSERT: updated graph file")

    p = sub.add_parser("report", help="compute the KPI report for a graph")
    p.add_argument("--graph", required=True, metavar="FILE", help="input graph file")
    p.add_argument("--t", type=int, metavar="N", help="also report per-node utilization at this step")
    p.add_argument("--out", metavar="FILE", help="output CSV file (default stdout)")

    p = sub.add_parser("sweep", help="run a scenario sweep and score each scenario")
    p.add_argument("--scenarios", required=True, metavar="FILE", help="scenario config file")
    p.add_argument("--seed", type=int, metavar="N", help="shared seed for every scenario")
    p.add_argument("--out", metavar="FILE", help="per-scenario CSV (default stdout)")
    p.add_argument("--plot", metavar="FILE", help="also write tab-separated plot data here")

    p = sub.add_parser("validate", help="check a graph against the vocabulary and shape rules")
    p.add_argument("--graph", required=True, metavar="FILE", help="input graph file")
    p.add_argument(
        "--allow-unknown",
        action="store_true",
        help="tolerate predicates outside the fixed vocabulary",
    )

    p = sub.add_parser("export", help="rewrite a graph in canonical serialized form")
    p.add_argument("--graph", required=True, metavar="FILE", help="input graph file")
    p.add_argument("--out", metavar="FILE", help="output graph file (default stdout)")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _split_assignment(raw: str, flag: str) -> tuple[str, str]:
    name, sep, value = raw.partition("=")
    if not sep or not name:
        raise UsageError(f"{flag} expects NAME=VALUE, got {raw!r}")
    return name, value


def _cmd_generate(args) -> int:
    config = parse_config_file(args.config) if args.config is not None else PRESETS[args.preset]()
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    _emit(serialize(generate(with_updates(config, args.overrides + seed))), args.out)
    return 0


def _cmd_simulate(args) -> int:
    graph = load_graph(args.graph)
    reports = Simulation(graph).run(args.horizon)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "considered", "from_stock", "produced", "unfulfilled"])
    for r in reports:
        writer.writerow([r.t, r.considered, r.from_stock, r.produced, r.unfulfilled])
    _emit(out.getvalue(), args.out)
    if args.final_graph is not None:
        atomic_write_text(args.final_graph, serialize(graph))
    return 0


def _cmd_query(args) -> int:
    graph = load_graph(args.graph)
    if args.queryfile is None or args.queryfile == "-":
        text = sys.stdin.read()
    else:
        with open(args.queryfile, encoding="utf-8") as handle:
            text = handle.read()
    params = {}
    for raw in args.params:
        name, value = _split_assignment(raw, "--param")
        try:
            params[name] = parse_term(value)
        except GraphParseError as exc:
            raise UsageError(f"--param {name}: {exc}") from None
    query = parse_query(text, params=params)
    if isinstance(query, SelectQuery):
        _emit(evaluate(query, graph, params).to_csv(), args.out)
    else:
        assert isinstance(query, InsertWhereQuery)
        if args.out is None:
            raise UsageError("INSERT queries modify the graph; --out FILE is required")
        added = evaluate_update(query, graph, params)
        atomic_write_text(args.out, serialize(graph))
        print(f"inserted {added} triples", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    graph = load_graph(args.graph)
    _emit(report_csv(build_report(graph, t=args.t)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    _, scenarios = parse_scenario_file(args.scenarios)
    results = run_scenarios(scenarios, seed=args.seed)
    _emit(scenario_csv(results), args.out)
    if args.plot is not None:
        atomic_write_text(args.plot, scenario_plot_data(results))
    return 0


def _cmd_validate(args) -> int:
    graph = load_graph(args.graph)
    violations = validate(graph, allow_unknown=args.allow_unknown)
    for v in violations:
        print(f"{v.severity} {v.code} {v.subject}: {v.message}")
    errors = sum(1 for v in violations if v.severity == "error")
    warnings = len(violations) - errors
    print(f"{errors} errors, {warnings} warnings", file=sys.stderr)
    return 2 if errors else 0


def _cmd_export(args) -> int:
    _emit(serialize(load_graph(args.graph)), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "query": _cmd_query,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename is not None else exc
        print(f"error: no such file: {name}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QueryEvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
