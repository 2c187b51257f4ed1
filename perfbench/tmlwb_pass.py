"""One pass: run a tmlwb batch script in this (fresh) process and record it.

    python3 perfbench/tmlwb_pass.py <spec.json> <record.json>

The spec names the tmlwb source tree, the workspace ($TMLWB_HOME), the
script, the corpus whose stored copy is fingerprinted at the end, the
command indices whose output is kept for verification, and whether the
pass is traced.

The untraced pass's only instrument is one timer around
``tmlwb.cli.execute`` per command. The traced pass additionally installs
``layer_trace.Tracer``. In both, ``tmlwb.cli.import_corpus`` is wrapped (without
a timer) so that the imported corpus can be fingerprinted after its
command returns; that work is subtracted from ``run_s``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    os.environ["TMLWB_HOME"] = spec["home"]
    import tmlwb.cli as cli
    from tmlwb.store import Store, corpus_fingerprint

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layer_trace import Tracer
        tracer = Tracer()
        tracer.install()

    capture = set(spec["capture"])
    commands: list[dict] = []
    outputs: dict[int, str] = {}
    imported: list = []
    fingerprints: dict[str, str] = {}
    harness_s = 0.0

    import_corpus = cli.import_corpus

    def capturing_import(*args, **kwargs):
        corpus = import_corpus(*args, **kwargs)
        imported.append(corpus)
        return corpus

    cli.import_corpus = capturing_import
    execute = cli.execute

    def timed_execute(session, cmd):
        nonlocal harness_s
        index = len(commands)
        record = {"kind": cmd.kind, "action": cmd.action, "error": None}
        commands.append(record)
        start = perf_counter()
        try:
            output = execute(session, cmd)
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record["s"] = perf_counter() - start
        start = perf_counter()
        if index in capture:
            outputs[index] = output
        if imported:
            fingerprints["imported"] = corpus_fingerprint(imported.pop())
        harness_s += perf_counter() - start
        return output

    cli.execute = timed_execute
    start = perf_counter()
    exit_code = cli.main(["-f", spec["script"]])
    run_s = perf_counter() - start - harness_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace = tracer.summary() if tracer else None  # before verification runs

    stored = Store().load_corpus(spec["corpus"])
    fingerprints["stored"] = corpus_fingerprint(stored)
    return {
        "exit_code": exit_code,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "commands": commands,
        "outputs": {str(k): v for k, v in outputs.items()},
        "fingerprints": fingerprints,
        "trace": trace,
    }


if __name__ == "__main__":
    spec_path, record_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    with open(os.devnull, "w") as sink:
        real_stdout, sys.stdout = sys.stdout, sink
        try:
            record = run_pass(spec)
        finally:
            sys.stdout = real_stdout
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
