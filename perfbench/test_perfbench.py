"""Self-test of the benchmark.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Small enough that every workload runs in about a second.
TINY = {"model-steady": 300, "simulate-mix": 12, "cold-start-wide": 30,
        "fleet-chaos": 300}


def _tiny(name):
    return replace(WORKLOADS[name], n_jobs=TINY[name])


def test_catalogue_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    setup = SPEC["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_emits_every_metric_and_passes_gate(name, trace, tmp_path):
    out = bench.run(_tiny(name), 3, 0.0, trace, tmp_path)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out.metrics) == [m["name"] for m in want]
    assert out.failed == 0, out.breaches
    assert out.attempted >= 3 * TINY[name]


@pytest.mark.parametrize("name", ["simulate-mix", "fleet-chaos"])
def test_traced_run_keeps_the_simulated_clock(name, tmp_path):
    traced = bench.run(_tiny(name), 5, 0.0, True, tmp_path)
    wl = _tiny(name)
    ready = wl.setup(wl, bench.sub_seed(5, 0), tmp_path, bench._no_span)
    _, report = ready.serve()
    plain = bench.sim_metrics(report, ready.encode(report))
    assert {k: v for k, v in traced.metrics.items()
            if k.startswith("sim.")} == plain


def _corrupting(name, corrupt):
    base = _tiny(name)

    def setup(wl, seed, work, span):
        ready = base.setup(wl, seed, work, span)
        serve = ready.serve
        return replace(ready, serve=lambda: corrupt(*serve()))
    return replace(base, setup=setup)


def test_gate_counts_a_corrupted_answer(tmp_path):
    def flip_one_answer(results, report):
        i = next(i for i, r in enumerate(results)
                 if r.answered and r.device_id >= 0)
        results[i] = replace(results[i], value_crc=results[i].value_crc ^ 1)
        return results, report

    out = bench.run(_corrupting("simulate-mix", flip_one_answer), 3, 0.0,
                    False, tmp_path)
    # Answers are checked once per distinct trace; sub-seed 0 is served
    # twice.
    assert out.failed == out.info["cycles"] - 1, out.breaches
    assert all("answer CRC" in b for b in out.breaches)


def test_gate_counts_a_broken_conservation_law(tmp_path):
    def admit_one_more(results, report):
        return results, replace(report, admitted=report.admitted + 1)

    out = bench.run(_corrupting("model-steady", admit_one_more), 3, 0.0,
                    False, tmp_path)
    # Two laws break per serve: admitted + rejected = requests and
    # ok + timeout + degraded + failed = admitted.
    assert out.failed == 2 * out.info["cycles"], out.breaches
    assert all("admitted" in b for b in out.breaches)


def test_gate_counts_failed_jobs_and_exceptions(tmp_path):
    from repro.runtime.jobs import JobStatus

    def fail_one(results, report):
        results[0] = replace(results[0], status=JobStatus.FAILED)
        return results, report

    out = bench.run(_corrupting("model-steady", fail_one), 3, 0.0, False,
                    tmp_path)
    assert out.failed >= out.info["cycles"]

    def boom(results, report):
        raise RuntimeError("serve broke")

    wl = _corrupting("model-steady", boom)
    out = bench.run(wl, 3, 0.0, False, tmp_path)
    assert out.failed == out.attempted == wl.n_jobs
    assert out.metrics == {}
