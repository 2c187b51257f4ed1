"""tmlwb benchmark: one command that sets up a workload, runs it, checks
the output and prints every metric.

    python3 perfbench/run.py --workload timebank_survey --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; tmlwb is imported from ./src.
Workloads (see workloads.py and BENCHMARK.json):

- timebank_survey: the north-star batch on a TimeBank-shaped corpus;
- long_docs: five long documents, so quadratic ingest dominates;
- report_session: read-only reports and browsing of a pre-imported corpus.

Set-up generates the corpus from the seed (generate.py). For
report_session it also runs the survey a user ran before reading: one
tmlwb process imports the corpus, uses it and runs the four checks in
all. report_session's passes import and check nothing, so its import_s,
check_consistent_s and checks_s come from these set-up processes. Then
passes run until --seconds have passed (at least MIN_PASSES). A pass is one
fresh process running the whole batch (tmlwb_pass.py), one at a time.
With --trace 0, set-up is repeated after the first passes, so that setup_s
is a median over set-ups spread over the run: CHEAP_SETUPS of them, or
MIN_PASSES for report_session, whose set-up imports and checks.
With --trace 0 the passes are untraced and the end-to-end metrics are
printed; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are printed. Timings are medians over passes; command
latency percentiles pool the commands of all passes.

Every pass is verified against the generator's manifest. The last line of
standard output is a JSON object with keys correct, attempted, failed and
metrics. The exit status is 1 if any verification failed, 2 if the
benchmark cannot run (for example, no tmlwb sources in ./src).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generate import generate  # noqa: E402
from layer_trace import HOOKS, LAYERS, tree_bytes  # noqa: E402
from workloads import WORKLOADS, Step, check_output, session_setup  # noqa: E402

MIN_PASSES = 3
CHEAP_SETUPS = 3 * MIN_PASSES
PASS_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("import_s", "s"), ("use_s", "s"),
    ("check_consistent_s", "s"), ("checks_s", "s"),
    ("report_p50_ms", "ms"), ("report_p95_ms", "ms"),
    ("browse_p50_ms", "ms"), ("browse_p95_ms", "ms"),
    ("peak_rss_mb", "MB"), ("store_bytes_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


class Runner:
    def __init__(self, root: Path, work: Path):
        self.src = root / "src"
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counter = 0

    def run_pass(self, steps: list[Step], home: Path, corpus: str, traced: bool,
                 exit_code: int, fingerprint: str | None = None) -> dict | None:
        """Run one batch in a fresh process; verify it; return its record."""
        self.counter += 1
        stem = self.work / f"pass{self.counter}"
        script = stem.with_suffix(".tmlwb")
        script.write_text("".join(s.line + "\n" for s in steps), encoding="utf-8")
        spec = {"src": str(self.src), "home": str(home), "script": str(script),
                "corpus": corpus, "trace": traced,
                "capture": [i for i, s in enumerate(steps) if s.expect]}
        spec_path, record_path = stem.with_suffix(".spec.json"), stem.with_suffix(".json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.attempted += len(steps)
        with open(stem.with_suffix(".err"), "w") as err:
            try:
                returncode = subprocess.run(
                    [sys.executable, str(HERE / "tmlwb_pass.py"), str(spec_path),
                     str(record_path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                    timeout=PASS_TIMEOUT_S, check=False).returncode
            except subprocess.TimeoutExpired:  # the child is killed and reaped
                returncode = "timeout"
        if returncode != 0 or not record_path.exists():
            self.fail(len(steps), f"pass process failed ({returncode}): "
                      f"{stem.with_suffix('.err').read_text()[-400:]!r}")
            return None
        record = json.loads(record_path.read_text(encoding="utf-8"))
        self.verify(steps, record, exit_code, fingerprint)
        return record

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        self.problems.append(problem)

    def verify(self, steps, record, exit_code, fingerprint) -> None:
        commands = record["commands"]
        bad = len(steps) - len(commands)  # never executed
        if bad:
            self.problems.append(f"{bad} commands not executed")
        for i, (step, cmd) in enumerate(zip(steps, commands)):
            if cmd["error"] is not None:
                bad += 1
                self.problems.append(f"{step.line!r}: {cmd['error']}")
            elif step.expect and not check_output(step.expect, record["outputs"].get(str(i))):
                bad += 1
                self.problems.append(f"{step.line!r}: output does not match the manifest")
        fps = record["fingerprints"]
        expected_fp = fps.get("imported", fingerprint)
        if expected_fp is None or fps["stored"] != expected_fp:
            bad += 1
            self.problems.append("corpus_fingerprint of the stored corpus differs "
                                 "from the imported one")
        if record["exit_code"] != exit_code:
            bad += 1
            self.problems.append(f"exit code {record['exit_code']}, expected {exit_code}")
        self.failed += min(bad, len(steps))


def latencies(steps: list[Step], record: dict, label: str) -> list[float]:
    return [cmd["s"] for step, cmd in zip(steps, record["commands"]) if step.label == label]


def first_latency(steps, record, prefix: str) -> float:
    return next(cmd["s"] for step, cmd in zip(steps, record["commands"])
                if step.line.startswith(prefix))


def add_checks(steps, record, consistent_s: list, check_s: list) -> None:
    """Add the latencies of each round of the four `check ... in all`
    commands (consistent first): the consistent check's, and the round's
    sum."""
    per_check = latencies(steps, record, "check_all")
    consistent_s += per_check[::4]
    check_s += [sum(per_check[i:i + 4]) for i in range(0, len(per_check), 4)]


def p95(values: list[float]) -> float:
    return quantiles(values, n=20)[-1] if len(values) > 1 else values[0]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    if not (root / "src" / "tmlwb" / "cli.py").is_file():
        raise BenchError(f"no tmlwb sources under {root / 'src'}")
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, work, Runner(root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _set_up(workload: str, seed: int, out: Path, runner: Runner):
    """One set-up: generate the corpus and, for report_session, import and
    check it. Returns (seconds, manifest, workload, (steps, record) of the
    set-up process or None)."""
    start = perf_counter()
    manifest = generate(workload, seed, out)
    corpus_dir = str(out / "corpus")
    w = WORKLOADS[workload](manifest, corpus_dir, seed)
    survey = None
    if workload == "report_session":
        steps = session_setup(manifest, corpus_dir, w.corpus_name)
        # the planted ERROR findings make the checks exit with status 2
        rec = runner.run_pass(steps, out / "home", w.corpus_name, False, 2)
        if rec is None:
            raise BenchError("set-up import failed: " + "; ".join(runner.problems))
        survey = (steps, rec)
    return perf_counter() - start, manifest, w, survey


def _run(workload, seed, seconds, trace, work, runner: Runner) -> dict:
    out = work / "setup0"
    setup_s, manifest, w, survey = _set_up(workload, seed, out, runner)
    home = out / "home"
    setup_times = [setup_s]
    # set-ups per run: report_session's imports and checks, the others'
    # only generate
    setups = 0 if trace else MIN_PASSES if workload == "report_session" else CHEAP_SETUPS
    import_times, check_s, consistent_s = [], [], []

    def add_survey(survey) -> None:
        if survey:
            steps, rec = survey
            import_times.append(first_latency(steps, rec, "corpus import"))
            add_checks(steps, rec, consistent_s, check_s)

    add_survey(survey)
    fingerprint = survey[1]["fingerprints"]["imported"] if survey else None
    input_bytes = manifest["sizes"]["bytes"]

    records: list[tuple[bool, dict]] = []
    deadline = perf_counter() + seconds
    n = 0
    while n < MIN_PASSES or perf_counter() < deadline:
        traced = trace and n % 2 == 1
        n += 1
        if workload != "report_session":
            shutil.rmtree(home, ignore_errors=True)
        rec = runner.run_pass(w.steps, home, w.corpus_name, traced, w.exit_code, fingerprint)
        if rec is not None:
            rec["store_bytes"] = tree_bytes(home)
            records.append((traced, rec))
        # repeat set-up between the first passes, so that its samples are
        # spread over the run like the pass samples
        for k in range(min(setups // MIN_PASSES, setups - len(setup_times))):
            extra = work / f"setup{n}-{k}"
            extra_s, _, _, survey = _set_up(workload, seed, extra, runner)
            setup_times.append(extra_s)
            add_survey(survey)
            shutil.rmtree(extra, ignore_errors=True)

    plain = [r for t, r in records if not t]
    traced_recs = [r for t, r in records if t]
    if not plain or (trace and not traced_recs):
        raise BenchError("no pass completed: " + "; ".join(runner.problems[:5]))
    steps = w.steps
    run_s = median(r["run_s"] for r in plain)
    info = {"passes": len(records), "setups": len(setup_times),
            "sizes": manifest["sizes"], "problems": runner.problems[:20]}
    if trace:
        metrics = per_layer(traced_recs, run_s)
    else:
        reports = [x for r in plain for x in latencies(steps, r, "report")]
        browses = [x for r in plain for x in latencies(steps, r, "browse")]
        uses = [x for r in plain for x in latencies(steps, r, "use")]
        if workload == "report_session":
            import_s = median(import_times)
        else:
            import_s = median(first_latency(steps, r, "corpus import") for r in plain)
            for r in plain:
                add_checks(steps, r, consistent_s, check_s)
        values = {
            "setup_s": median(setup_times),
            "run_s": run_s,
            "import_s": import_s,
            "use_s": median(uses),
            "check_consistent_s": median(consistent_s),
            "checks_s": median(check_s),
            "report_p50_ms": 1000 * median(reports),
            "report_p95_ms": 1000 * p95(reports),
            "browse_p50_ms": 1000 * median(browses),
            "browse_p95_ms": 1000 * p95(browses),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "store_bytes_ratio": median(r["store_bytes"] for r in plain) / input_bytes,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        info["samples"] = {"report": len(reports), "browse": len(browses), "use": len(uses)}
    info["failed_ops_ratio"] = runner.failed / max(runner.attempted, 1)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics, "info": info}


def per_layer(traced: list[dict], untraced_run_s: float) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    summaries = [dict(r["trace"], run_s=r["run_s"]) for r in traced]
    missing = sorted({m for s in summaries for m in s["missing"]})
    missing_spans = {span for span, module, path, _, _ in HOOKS
                     if f"{module}.{path}" in missing}

    def med(get) -> float:
        return median(get(s) for s in summaries)

    def self_s(span):
        return lambda s: s["self_s"].get(span, 0.0)

    def calls(span):
        return lambda s: s["calls"].get(span, 0)

    def lat(span, key):
        return lambda s: s["latency"].get(span, {}).get(key, 0.0)

    def count(key):
        return lambda s: s["counts"].get(key, 0)

    def ratio(num, den):
        return lambda s: num(s) / den(s) if den(s) else 0.0

    m: dict[str, tuple] = {}  # name -> (getter, unit, span it needs)

    def add(name, get, unit, span):
        m[name] = (get, unit, span)

    pd, cc, rq = "ingest.parse_document", "point_algebra.check_consistency", "query.run_query"
    for span in (pd, cc, rq):
        add(f"{span}.s", self_s(span), "s", span)
        add(f"{span}.p50_ms", lat(span, "p50_ms"), "ms", span)
    for span in (pd, cc):
        add(f"{span}.max_ms", lat(span, "max_ms"), "ms", span)
    add(f"{pd}.calls", calls(pd), "count", pd)
    add("ingest.mb_per_s", ratio(lambda s: count("ingest.bytes")(s) / 1e6,
                                 lat(pd, "sum_s")), "MB/s", pd)
    add("tokenizer.tokens", count("tokenizer.tokens"), "count", "tokenizer.lemmatize")
    add("store.bytes_written", count("store.bytes_written"), "count", "store.save_corpus")
    add("store.bytes_read", count("store.bytes_read"), "count", "store.load_corpus")
    add("point_algebra.assertions", count("point_algebra.assertions"), "count",
        "point_algebra.document_assertions")
    add("point_algebra.processed", count("point_algebra.processed"), "count", cc)
    add("point_algebra.processed_per_assertion",
        ratio(count("point_algebra.processed"), count("point_algebra.assertions")),
        "ratio", "point_algebra.document_assertions")
    add("point_algebra.inconsistent_docs", count("point_algebra.inconsistent_docs"),
        "count", cc)
    add("graph_checks.subgraphs", count("graph_checks.subgraphs"), "count",
        "graph_checks.subgraph_stats")
    add("graph_checks.findings", count("graph_checks.findings"), "count",
        "graph_checks.check_tlink_loop")
    add("query.rows", count("query.rows"), "count", rq)
    for span, _, _, _, _ in HOOKS:
        if span in (pd, cc, rq) or span == "cli.execute":
            continue
        if span == "checks.run_check":
            for check in ("consistent", "tlink_loop", "split_graph", "orphans"):
                add(f"{span}.{check}.s", self_s(f"{span}.{check}"), "s", span)
            continue
        add(f"{span}.s", self_s(span), "s", span)
    for span in ("model.Corpus.document", "model.Corpus.document_by_filename"):
        add(f"{span}.calls", calls(span), "count", span)
    add("cli.execute.self_s", self_s("cli.execute"), "s", "cli.execute")

    def layer_self(layer):
        return lambda s: sum(v for k, v in s["self_s"].items() if k.split(".")[0] == layer)

    for layer in LAYERS:
        add(f"{layer}.self_s", layer_self(layer), "s", None)
    add("trace.counters_s", self_s("trace.counters"), "s", None)
    add("trace.run_s", lambda s: s["run_s"], "s", None)
    add("trace.overhead_s", lambda s: s["run_s"] - untraced_run_s, "s", None)
    add("trace.coverage", lambda s: sum(s["self_s"].values()) / s["run_s"], "ratio", None)
    add("trace.missing_hooks", lambda s: len(missing), "count", None)

    out = {}
    for name, (get, unit, span) in m.items():
        if span in missing_spans:
            print(f"missing hook for {name}: {span}", file=sys.stderr)
            continue
        out[name] = {"value": med(get), "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'failed_ops_ratio':48s} {info['failed_ops_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    print(f"passes {info['passes']}, set-ups {info['setups']}, "
          f"samples {info.get('samples')}, corpus {info['sizes']}")
    for problem in info["problems"]:
        print(f"verification: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
