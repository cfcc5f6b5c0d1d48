"""The three workloads: their inputs, timed passes and output checks.

Each workload is single-process and closed-loop: one client, and the next
command starts only after the last one returned. CLI commands run
in-process through ``supplykg.cli.main(argv)``; the analytics query mix
runs through the public ``evaluate``/``evaluate_update`` API.

A workload object is built from a seed and a work directory. ``setup()``
writes its input files; ``run_pass(ops)`` runs the timed operations once
and checks their outputs. Every timed value lands in ``ops.samples`` under
the end-to-end metric it feeds: ``op1_s``, ``op2_s`` and ``op3_s`` are the
workload's first, second and third operation, named in OPERATIONS.

Output checks hold for every seed; a failed check fails its operation.

Set-up commands run in a child process, so that the peak memory of the
benchmark's own process covers only loading and the timed operations.

Before each timed CLI command and each pass of the query mix,
``Ops.calibrate`` times a fixed loop; ``run.py`` scales every timing by
the run's mean loop time, so that the machine's changing speed cancels.

Every timed CLI command, and the query mix as a whole, starts right after a
full garbage collection, so the cyclic collector runs at the same points
of the same work in every pass instead of wherever earlier allocations
left its counters; the collections an operation causes are still inside
its time.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from supplykg import cli, schema
from supplykg.analytics import _CORPUS
from supplykg import query as engine
from supplykg.query import parse_query
from supplykg.terms import DECIMAL, INTEGER, TIMESTEP, Iri, Literal, Quoted, integer, timestep

ROOT = Path(__file__).resolve().parent.parent
SWEEP_FILE = ROOT / "scenarios" / "automotive_sweep.cfg"
HORIZON = "178"

# What op1_s, op2_s and op3_s time in each workload.
OPERATIONS = {
    "build": ("supplykg generate", "supplykg simulate --final-graph", "supplykg sweep"),
    "ingest": ("supplykg export (final graph)", "supplykg validate (final graph)", "supplykg validate (generated graph)"),
    "analytics": ("supplykg report --t 0", "query mix: one-pattern lookups", "query mix: joins"),
}

# Scale k multiplies the tier widths and demand_frequency of the automotive
# preset (tiers 2/3/5 and 2/2/4, frequency 2). supplier_groups stays at its
# preset value: scaled with the tiers it leaves a component without any
# maker, and then every order is rejected.
#
# build narrows saturation so that about one order in eight is rejected.
# The focal node's saturation decides most rejections; left to the seed it
# moves the produced share between 44 % and 88 % and the simulate time
# with it, so it is pinned and the seed varies everything else.
BUILD_CONFIG = """preset = automotive
supplier_tier_nodes = [8, 12, 20]
customer_tier_nodes = [8, 8, 16]
demand_frequency = 8
saturation_range = [500000, 1500000]
per_node_overrides.OEM1.hasSaturation = 1400000
"""

# ingest and analytics pin saturation as the shipped sweep does. Left to
# the seed, saturation decides how many capacity records the simulation
# books: the final graph's size moved by 14 % across seeds 1-10, and the
# report's work, one scan per record in every utilization query, by a
# factor of 1.8.
#
# analytics keeps the preset's demand_frequency of 2 on k=2 tiers. With
# the frequency doubled as well, one pass of report and query mix took
# 15 s, so a run held only two passes and one slow pass moved its median.
INGEST_CONFIG = """preset = automotive
supplier_tier_nodes = [8, 12, 20]
customer_tier_nodes = [8, 8, 16]
demand_frequency = 8
saturation_range = [2000000, 2000000]
"""
ANALYTICS_CONFIG = """preset = automotive
supplier_tier_nodes = [4, 6, 10]
customer_tier_nodes = [4, 4, 8]
saturation_range = [2000000, 2000000]
"""


# Calibration loops timed before each set-up and each timed operation.
CALIBRATION_SAMPLES = 20


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of dict, tuple and str work. The keys
    hold no strings, so the time does not depend on the process's hash
    seed."""
    start = perf_counter()
    seen = {}
    for i in range(4000):
        key = (i % 97, i)
        seen[key] = seen.get(key, 0) + len(str(i))
    return perf_counter() - start


class Ops:
    """Counts attempted and failed operations and collects timings."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.latencies_ms: list[float] = []
        self.loops: list[float] = []

    def calibrate(self) -> None:
        """Sample the machine's current speed with the calibration loop."""
        self.loops += [calibration_loop() for _ in range(CALIBRATION_SAMPLES)]

    def _span(self, name, command):
        return self.tracer.span(name, command) if self.tracer is not None else nullcontext()

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {message}")

    def verify(self, label: str, problems: list[str]) -> bool:
        """Record one operation's output check; a check with problems fails it."""
        if problems:
            self.fail(label, "; ".join(problems))
        return not problems

    def child_cli(self, argv: list[str]) -> bool:
        """Run one set-up command in a child process; return whether it
        exited with 0 (if not, the operation is failed)."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-B", "-c", "from supplykg.cli import entry; entry()", *argv],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            self.fail(argv[0], f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.returncode == 0

    def cli(self, argv: list[str]):
        """Run one command; return (seconds, stdout, stderr), or None if it
        raised or exited non-zero (the operation is then failed)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        self.calibrate()
        gc.collect()
        try:
            with redirect_stdout(out), redirect_stderr(err), self._span(f"cli.{argv[0]}", argv[0]):
                start = perf_counter()
                code = cli.main(argv)
                seconds = perf_counter() - start
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            self.fail(argv[0], repr(exc))
            return None
        if code != 0:
            self.fail(argv[0], f"exit {code}: {err.getvalue().strip()[-300:]}")
            return None
        return seconds, out.getvalue(), err.getvalue()

    def call(self, label: str, kind: str, fn):
        """Time one query of the mix; return (seconds, result) or None if it
        raised."""
        self.attempted += 1
        try:
            with self._span(f"mix.{kind}", "mix"):
                start = perf_counter()
                result = fn()
                seconds = perf_counter() - start
        except Exception as exc:
            self.fail(label, repr(exc))
            return None
        return seconds, result


# -- checks on files -------------------------------------------------------------


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_ORDER_LINE = re.compile(r'^:(\S+) a :Order \.$', re.M)
_VERDICT_LINE = re.compile(r'^:(\S+) :isFulfilled "(True|False)"\^\^boolean \.$', re.M)


def verdicts(graph_text: str) -> tuple[int, Counter, list[str]]:
    """Recount, from the canonical text of a graph, the orders and their
    verdicts. Returns (orders, Counter of "True"/"False", problems)."""
    orders = set(_ORDER_LINE.findall(graph_text))
    per_order = Counter()
    outcome = Counter()
    for name, value in _VERDICT_LINE.findall(graph_text):
        per_order[name] += 1
        outcome[value] += 1
    problems = []
    wrong = [o for o in orders if per_order[o] != 1]
    if wrong:
        problems.append(f"{len(wrong)} orders without exactly one isFulfilled verdict, e.g. {sorted(wrong)[0]}")
    if set(per_order) - orders:
        problems.append("isFulfilled on a subject that is not an order")
    return len(orders), outcome, problems


def run_totals(run_csv: str) -> dict[str, int]:
    totals = Counter()
    for row in csv.DictReader(io.StringIO(run_csv)):
        for key in ("considered", "from_stock", "produced", "unfulfilled"):
            totals[key] += int(row[key])
    return dict(totals)


class Workload:
    name = ""
    config = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.config_path = workdir / f"{self.name}.cfg"
        self.generated = workdir / "generated.nt"
        self.final = workdir / "final.nt"
        self.run_csv = workdir / "run.csv"

    def setup(self, ops: Ops) -> str | None:
        """Write the config, then generate and simulate the input network
        through the CLI in a child process, and check every order got
        exactly one verdict. Returns the final graph's digest, or None if
        set-up failed."""
        self.config_path.write_text(self.config, encoding="utf-8")
        if not ops.child_cli(["generate", "--config", str(self.config_path), "--seed", str(self.seed), "--out", str(self.generated)]):
            return None
        simulate = ["simulate", "--graph", str(self.generated), "--horizon", HORIZON,
                    "--out", str(self.run_csv), "--final-graph", str(self.final)]
        if not ops.child_cli(simulate):
            return None
        self.orders, self.outcome, problems = verdicts(self.final.read_text(encoding="utf-8"))
        self.totals = run_totals(self.run_csv.read_text(encoding="utf-8"))
        if self.totals["considered"] != self.orders:
            problems.append(f"run.csv considered {self.totals['considered']} orders, the graph has {self.orders}")
        if not ops.verify("setup", problems + self.setup_problems()):
            return None
        return digest(self.final)

    def setup_problems(self) -> list[str]:
        return []

    def run_pass(self, ops: Ops) -> None:
        raise NotImplementedError


class Build(Workload):
    """generate -> simulate --final-graph -> sweep at k=4 with tight
    saturation, so orders are both produced and rejected. The set-up run
    is the reference the timed passes must reproduce."""

    name = "build"
    config = BUILD_CONFIG

    def setup_problems(self) -> list[str]:
        self.generated_digest = digest(self.generated)
        self.final_digest = digest(self.final)
        self.sweep_digest = None
        t = self.totals
        if t["produced"] > 0 and t["unfulfilled"] > 0:
            return []
        return [f"branch mix lost: produced {t['produced']}, unfulfilled {t['unfulfilled']}"]

    def run_pass(self, ops: Ops) -> None:
        net, final = self.dir / "pass.nt", self.dir / "pass-final.nt"
        run_csv, sweep_csv = self.dir / "pass-run.csv", self.dir / "pass-sweep.csv"

        r = ops.cli(["generate", "--config", str(self.config_path), "--seed", str(self.seed), "--out", str(net)])
        if r is not None:
            ops.samples["op1_s"].append(r[0])
            ops.verify("generate", [] if digest(net) == self.generated_digest else ["generated graph differs from set-up"])

        r = ops.cli(["simulate", "--graph", str(net), "--horizon", HORIZON, "--out", str(run_csv), "--final-graph", str(final)])
        if r is not None:
            ops.samples["op2_s"].append(r[0])
            problems = []
            if digest(final) != self.final_digest:
                problems.append("final graph digest differs from set-up with the same seed")
            if run_totals(run_csv.read_text(encoding="utf-8")) != self.totals:
                problems.append("order outcomes differ from set-up")
            ops.verify("simulate", problems)

        r = ops.cli(["sweep", "--scenarios", str(SWEEP_FILE), "--seed", str(self.seed), "--out", str(sweep_csv)])
        if r is not None:
            ops.samples["op3_s"].append(r[0])
            problems = []
            rows = list(csv.DictReader(io.StringIO(sweep_csv.read_text(encoding="utf-8"))))
            if [row["label"] for row in rows] != ["S1", "S2", "S3"]:
                problems.append("sweep rows are not S1, S2, S3")
            for row in rows:
                f, u = int(row["fulfilled"]), int(row["unfulfilled"])
                if f + u == 0 or float(row["fulfillment_rate_percent"]) != 100.0 * f / (f + u):
                    problems.append(f"{row['label']}: rate does not match its counts")
            if self.sweep_digest is None:
                self.sweep_digest = digest(sweep_csv)
            elif digest(sweep_csv) != self.sweep_digest:
                problems.append("sweep output differs between passes with the same seed")
            ops.verify("sweep", problems)


class Ingest(Workload):
    """export and validate of the final graph of the automotive network at
    k=4, plus validate of its generated graph."""

    name = "ingest"
    config = INGEST_CONFIG

    def run_pass(self, ops: Ops) -> None:
        exported = self.dir / "export.nt"
        r = ops.cli(["export", "--graph", str(self.final), "--out", str(exported)])
        if r is not None:
            ops.samples["op1_s"].append(r[0])
            same = exported.read_bytes() == self.final.read_bytes()
            ops.verify("export", [] if same else ["export of the final graph is not byte-identical to it"])

        for metric, graph in (("op2_s", self.final), ("op3_s", self.generated)):
            r = ops.cli(["validate", "--graph", str(graph)])
            if r is not None:
                ops.samples[metric].append(r[0])
                summary = r[2].strip().splitlines()[-1] if r[2].strip() else ""
                ok = re.fullmatch(r"0 errors, \d+ warnings", summary) is not None
                ops.verify("validate", [] if ok else [f"validate {graph.name}: {summary!r}"])


class Analytics(Workload):
    """report --t 0 and a query mix on the final graph of the automotive
    network at k=2."""

    name = "analytics"
    config = ANALYTICS_CONFIG

    def setup(self, ops: Ops) -> str | None:
        final_digest = super().setup(ops)
        if final_digest is not None:
            self.graph = schema.load_graph(str(self.final))
            self.mix = query_mix(self.graph)
        return final_digest

    def run_pass(self, ops: Ops) -> None:
        report_csv = self.dir / "report.csv"
        r = ops.cli(["report", "--graph", str(self.final), "--t", "0", "--out", str(report_csv)])
        if r is not None:
            ops.samples["op1_s"].append(r[0])
            values = {row["metric"]: row["value"] for row in csv.DictReader(io.StringIO(report_csv.read_text(encoding="utf-8")))}
            fulfilled, unfulfilled = int(values.get("orders_fulfilled", -1)), int(values.get("orders_unfulfilled", -1))
            problems = []
            if fulfilled + unfulfilled != self.orders:
                problems.append(f"report counts {fulfilled}+{unfulfilled} orders, the graph has {self.orders}")
            if (fulfilled, unfulfilled) != (self.outcome["True"], self.outcome["False"]):
                problems.append("report counts differ from the verdict lines")
            ops.verify("report", problems)
        run_mix(self.mix, self.graph.copy(), ops)


# -- the analytics query mix ---------------------------------------------------------


class Recount:
    """Indexes of ``graph.triples()``, built without the query engine, to
    recount what each query of the mix must return."""

    def __init__(self, graph):
        self.by_p = defaultdict(list)
        self.by_s = defaultdict(list)
        for t in graph.triples():
            self.by_p[t.predicate.name].append(t)
            self.by_s[t.subject].append(t)

    def objects(self, subject, predicate: str) -> list:
        return [t.object for t in self.by_s.get(subject, ()) if t.predicate.name == predicate]

    def subjects_of_type(self, cls: str) -> list:
        return [t.subject for t in self.by_p["rdf:type"] if t.object == Iri(cls)]


def _is_number(term) -> bool:
    return isinstance(term, Literal) and term.datatype in (INTEGER, DECIMAL, TIMESTEP)


def _bom_rows(rc: Recount) -> int:
    return sum(
        1
        for t in rc.by_p["needsQuantity"]
        if isinstance(t.subject, Quoted)
        and t.subject.triple.subject == Iri("Product")
        and t.subject.triple.predicate == Iri("needsProduct")
    )


def _due_rows(t: int, lead: int):
    return lambda rc: sum(
        1 for x in rc.by_p["hasDeliveryTime"] if _is_number(x.object) and x.object.value - lead == t
    )


def _with_predicate(predicate: str):
    return lambda rc: len(rc.by_p[predicate])


def _with_subject_predicate(subject: str, predicate: str):
    return lambda rc: len(rc.objects(Iri(subject), predicate))


def _with_object(name: str):
    return lambda rc: sum(1 for ts in rc.by_p.values() for t in ts if t.object == Iri(name))


def _c1_rows(rc: Recount) -> int:
    upstream = Counter(t.object for t in rc.by_p["hasDownStreamNode"])
    return sum(upstream[t.subject] for t in rc.by_p["makes"])


def _c8_rows(rc: Recount) -> int:
    return sum(len(rc.by_s[node]) for node in rc.subjects_of_type("Node"))


def _customer_total_rows(rc: Recount) -> int:
    customers = set(rc.subjects_of_type("Customer"))
    has_quantity = {t.subject for t in rc.by_p["hasQuantity"]}
    return len({t.subject for t in rc.by_p["makes"] if t.subject in customers and t.object in has_quantity})


def _verdict_rows(customer):
    return lambda rc: sum(len(rc.objects(order, "isFulfilled")) for order in rc.objects(customer, "makes"))


DUE = "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }"
TAG_DUE = "INSERT { ?o a :DueNow . } WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }"
BOM = "SELECT * WHERE { << :Product :needsProduct ?p >> :needsQuantity ?q . }"
CUSTOMER_VERDICTS = "SELECT ?o ?x WHERE { c :makes ?o . ?o :isFulfilled ?x . }"
# Worst-first: the largest bucket comes first and the selective pattern last.
CUSTOMER_TOTALS = (
    "SELECT ?c (SUM(?q) AS ?total) WHERE { ?o :hasQuantity ?q . ?c :makes ?o . ?c a :Customer . } GROUP BY ?c"
)
TAG_CUSTOMER_ORDERS = "INSERT { ?o a :CustomerOrder . } WHERE { ?c a :Customer . ?c :makes ?o . }"

# The conformance corpus of supplykg.analytics, minus Q2: its last pattern
# binds nothing the index can use, so it scans every triple once per
# customer pair. On an 11,369-triple graph it took 12 s, twice a report:
# too long to repeat every pass.
_CORPUS_RECOUNTS = {
    "Q1": _with_predicate("makes"),
    "Q3": _bom_rows,
    "Q4": _with_subject_predicate("Node3.2", "hasProcess"),
    "Q5": _with_subject_predicate("Node3.2", "hasSCORKPI"),
    "Q6": _with_object("Node"),
    "C1": _c1_rows,
    "C2+C10": _bom_rows,
    "C4": _with_predicate("hasProcess"),
    "C5": _with_predicate("hasResponsiveness"),
    "C8+C9": _c8_rows,
}


def query_mix(graph) -> list[tuple]:
    """The mix as parsed queries: (label, query, params, recount, class).
    The class is "lookup" for one pattern and "join" for more. The due
    lookups, one per step, are 178 of the 209 queries, so both the p50 and
    the p90 latency fall on them; the joins show in their class total."""
    lead = schema.node(graph, schema.the_oem(graph)).delivery_time
    corpus = {label: text for label, text, _, _ in _CORPUS}
    lookups = [label for label in _CORPUS_RECOUNTS if len(parse_query(corpus[label]).patterns) == 1]
    entries = [("bom", BOM, {}, _bom_rows)]
    entries += [(label, corpus[label], {}, _CORPUS_RECOUNTS[label]) for label in lookups]
    for t in range(int(HORIZON)):
        params = {"t": timestep(t), "lt": integer(lead)}
        entries.append((f"due{t}", DUE, params, _due_rows(t, lead)))
        if t in (60, 120):  # writes among the reads
            entries.append((f"tag_due{t}", TAG_DUE, params, None))
    for customer in schema.nodes_of_kind(graph, Iri("Customer")):
        entries.append((f"verdicts_{customer.name}", CUSTOMER_VERDICTS, {"c": customer}, _verdict_rows(customer)))
    entries.append(("tag_customer_orders", TAG_CUSTOMER_ORDERS, {}, None))
    entries += [(label, corpus[label], {}, recount) for label, recount in _CORPUS_RECOUNTS.items() if label not in lookups]
    entries.append(("customer_totals", CUSTOMER_TOTALS, {}, _customer_total_rows))

    mix = []
    for label, text, params, recount in entries:
        query = parse_query(text, params=params)
        kind = "lookup" if len(query.patterns) == 1 else "join"
        mix.append((label, query, params, recount, kind))
    return mix


def run_mix(mix, graph, ops: Ops) -> None:
    """Run the mix once on ``graph`` (a copy: INSERTs change it). Calls go
    through the ``supplykg.query`` module so a traced pass sees them."""
    totals = {"lookup": 0.0, "join": 0.0}
    recount = None
    ops.calibrate()
    gc.collect()
    for label, query, params, count, kind in mix:
        if count is None:
            before = len(graph)
            r = ops.call(label, kind, lambda: engine.evaluate_update(query, graph, params))
            if r is None:
                continue
            recount = None  # the graph changed
            grew = len(graph) - before
            ops.verify(label, [] if r[1] == grew else [f"INSERT reported {r[1]} triples, graph grew by {grew}"])
        else:
            r = ops.call(label, kind, lambda: engine.evaluate(query, graph, params))
            if r is None:
                continue
            if recount is None:
                recount = Recount(graph)
            want = count(recount)
            ops.verify(label, [] if len(r[1].rows) == want else [f"{len(r[1].rows)} rows, recount gives {want}"])
        totals[kind] += r[0]
        ops.latencies_ms.append(r[0] * 1000.0)
    ops.samples["op2_s"].append(totals["lookup"])
    ops.samples["op3_s"].append(totals["join"])


WORKLOADS = {w.name: w for w in (Build, Ingest, Analytics)}
