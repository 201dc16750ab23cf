"""Arrivals stream from the sorted arrival deque, not the event heap.

The trace fixes every arrival before the first cycle, so the scheduler
keeps them in one ``(arrival_cycle, job_id)``-ordered deque and merges
its head against the heap top, ranked as ``EventKind.ARRIVAL``.  The
heap then holds only devices, in-flight attempts and deadlines.  These
tests pin the engine counters an arrival event per job used to
produce: ``events_processed`` and ``events_stale`` are unchanged, and
``pushed`` is lower by exactly one per job.
"""

import json
import pathlib
import zlib

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.runtime import DevicePool, Scheduler
from repro.runtime.jobs import Job, TraceSpec, make_trace
from repro.runtime.metrics import report_json
from repro.sim.chaos import ChaosModel

TRACES = (pathlib.Path(__file__).resolve().parent.parent
          / "examples" / "traces")
PAIRS = (("stencil27", "spmv"), ("stencil27", "symgs"),
         ("af_shell", "spmv"), ("af_shell", "symgs"))


def _steady_trace(n_jobs, seed=1000):
    """The ``model-steady`` benchmark trace: ~0.85 utilisation on four
    model-mode devices, loose deadlines."""
    return make_trace(TraceSpec(
        n_requests=n_jobs, seed=seed, scale=0.05, workloads=PAIRS,
        mean_interarrival_cycles=280.0,
        deadline_range=(200_000.0, 400_000.0)))


def _steady_scheduler(seed=1000, chaos=None):
    return Scheduler(DevicePool(4, fault_rate=0.01, seed=seed,
                                execution="model", chaos=chaos))


class TestModelSteadyCounters:
    def test_counters_and_report_match_one_arrival_event_per_job(self):
        sched = _steady_scheduler()
        results, report = sched.run(_steady_trace(4000))
        # 11,870 pushes with one ARRIVAL heap event per job.
        assert sched.events.pushed == 11_870 - 4_000
        assert (report.events_processed, report.events_stale) == \
            (7_952, 2_902)
        assert zlib.crc32(report_json(report).encode()) == 3711648363
        assert len(results) == 4000

    @pytest.mark.parametrize("chaos", [None, ChaosModel(rate=0.5, seed=3)])
    def test_heap_after_start_does_not_grow_with_the_trace(self, chaos):
        sizes = []
        for n_jobs in (50, 2000):
            sched = _steady_scheduler(chaos=chaos)
            sched.start(_steady_trace(n_jobs))
            sizes.append(len(sched.events))
        assert sizes[0] == sizes[1]
        assert sizes[0] <= 4  # at most one pending incident per device


class TestReplayCounterPins:
    def test_deadline_edge_replay(self, tmp_path, capsys):
        # The fixture's first job arrives at cycle 0 and is admitted
        # inside ``start``; it still counts once as a stale wake.
        out = tmp_path / "edge.json"
        assert main(["serve", "--trace-file",
                     str(TRACES / "deadline_edge.json"),
                     "--devices", "2", "--fault-rate", "0.9",
                     "--seed", "0", "--check",
                     "--report-json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert (report["events_processed"], report["events_stale"]) == \
            (11, 2)

    def test_fleet_storm_replay(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        assert main(["serve", "--trace-file",
                     str(TRACES / "chaos_storm.json"),
                     "--devices", "3", "--fault-rate", "0.1",
                     "--seed", "0", "--pools", "3", "--replicas", "2",
                     "--pool-chaos", "0.2:11", "--check",
                     "--report-json", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert [(p["report"]["events_processed"],
                 p["report"]["events_stale"])
                for p in report["pool_stats"]] == \
            [(53, 20), (54, 23), (53, 21)]
        assert report["reroutes"] == 1


def _job(job_id, arrival):
    return Job(job_id=job_id, kernel="spmv", dataset="stencil27",
               scale=0.05, arrival_cycle=arrival,
               deadline_cycles=200_000.0, seed=job_id)


class TestAddJob:
    def _session(self):
        sched = Scheduler(DevicePool(2, execution="model"))
        sched.start([_job(0, 100.0), _job(1, 5_000.0)])
        assert sched.advance()  # wakes at job 0's arrival
        assert sched._now == 100.0
        return sched

    @pytest.mark.parametrize("arrival", [100.0, 50.0, 0.0])
    def test_arrival_not_after_now_is_refused(self, arrival):
        sched = self._session()
        with pytest.raises(ConfigError) as err:
            sched.add_job(_job(7, arrival))
        message = str(err.value)
        assert "job 7" in message
        assert str(arrival) in message and "100.0" in message
        # Refused before anything changed: the job can still be routed.
        sched.add_job(_job(7, 100.5))

    def test_injected_arrival_preempts_a_held_arrival_wake(self):
        sched = self._session()
        while sched.peek_cycle() < 5_000.0:
            sched.advance()  # job 0's completion
        assert sched.peek_cycle() == 5_000.0  # job 1's arrival, held
        heap_before = len(sched.events)
        sched.add_job(_job(7, 2_000.0))
        # The held arrival is let go, not pushed onto the heap.
        assert len(sched.events) == heap_before
        assert sched.peek_cycle() == 2_000.0
        while sched.advance():
            pass
        results, report = sched.finish()
        assert [r.job_id for r in results] == [0, 1, 7]
        assert all(r.answered for r in results)
