"""Tests of the benchmark itself: generator determinism, the manifest's
TimeBank counts, and a smoke run of each workload.

    python3 -m pytest perfbench/tests -q
"""
import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from generate import generate  # noqa: E402
from workloads import DOCUMENTED_COMMANDS, WORKLOADS  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["timebank_survey", "long_docs"])
def test_generator_is_deterministic(tmp_path, workload):
    generate(workload, 5, tmp_path / "a")
    generate(workload, 5, tmp_path / "b")
    generate(workload, 6, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    c = _files(tmp_path / "c")
    assert a.keys() == c.keys()
    assert a != c


@pytest.mark.parametrize("seed", [1, 2])
def test_manifest_reproduces_timebank_counts(tmp_path, seed):
    m = generate("timebank_survey", seed, tmp_path / "g")
    counts = m["counts"]
    assert m["sizes"]["documents"] == 183
    assert m["sizes"]["tlinks"] == 6418
    assert counts["reltype"]["BEFORE"] == 1408
    assert counts["reltype"]["DURING_INV"] == 1
    assert counts["signalid"] == {"filled": 718, "unfilled": 5700}
    assert sum(counts["pos"].values()) == counts["instances"] == 7940
    assert counts["tlink_loop"] == {"findings": 26, "documents": 19,
                                    "simultaneous_or_identity": 10}
    assert len(m["planted_inconsistent"]) == 8
    assert {"wsj_0927.tml", "WSJ910225-0066.tml"} <= {
        d["filename"] for d in m["documents"]}
    assert all(loop["reltype"] in ("SIMULTANEOUS", "IDENTITY")
               for loop in m["planted_loops"] if loop["kind"] == "direct")
    on_disk = sum(p.stat().st_size for p in (tmp_path / "g" / "corpus").iterdir())
    assert on_disk == m["sizes"]["bytes"]


def test_documented_commands_match_acceptance_suite():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    lists = [ast.literal_eval(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "DOCUMENTED_COMMANDS" for t in node.targets)]
    assert lists == [DOCUMENTED_COMMANDS]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_failed_operations(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _bench(ROOT, "--workload", "report_session", "--seed", "3", "--seconds", "0",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in benchmark["per_layer"]}
    assert metrics["trace.missing_hooks"]["value"] == 0
    # report_session reads only: no ingest and no consistency checking
    assert metrics["ingest.self_s"]["value"] == 0
    assert metrics["point_algebra.self_s"]["value"] == 0
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "long_docs", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
