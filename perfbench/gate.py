"""Correctness gate: every breach counts as one failed operation.

Checked on every serve call:

* the report's conservation laws (admitted + rejected = requests;
  ok + timeout + degraded + failed = admitted; the report's counts
  equal the tally of the returned results), per pool for a fleet,
  whose pools never count more of any status than the fleet;
* jobs that ended ``FAILED``;
* an identical canonical report and identical results for every serve
  of one seed, traced or not.

Checked once per trace, outside the measured time: every returned
answer.  A device answer from a simulating
pool is recomputed on a fault-free verification device and must have
the same ``value_crc`` and lie within :data:`RTOL` of
``DevicePool.reference_values``; a reference-path answer must carry
the reference answer's CRC; a model-mode device answer carries none.

REJECTED, TIMEOUT and DEGRADED are modelled outcomes, reported as
``sim.*`` counts, not failures.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.runtime.jobs import Job, JobResult, JobStatus
from repro.runtime.pool import DevicePool, value_crc

#: Relative 2-norm error allowed between an accelerator answer and the
#: golden kernel's.  Measured answers agree to ~3e-16.
RTOL = 1e-12

_STATUSES = ("ok", "timeout", "degraded", "rejected", "failed")


def conservation_breaches(report, results: Sequence[JobResult],
                          n_requests: int) -> List[str]:
    """Conservation laws a report and its results must satisfy."""
    out = []
    if len(results) != n_requests:
        out.append(f"{len(results)} results for {n_requests} requests")
    if report.requests != n_requests:
        out.append(f"report.requests {report.requests} != {n_requests}")
    tally = {s: 0 for s in _STATUSES}
    for r in results:
        tally[r.status.value] += 1
    for s in _STATUSES:
        if getattr(report, s) != tally[s]:
            out.append(f"report.{s} {getattr(report, s)} != {tally[s]} "
                       f"results")
    pools = ([p.report for p in report.pool_stats]
             if hasattr(report, "pool_stats") else [report])
    # A fleet finalises some jobs itself (in-transit timeouts, the
    # last-resort reference path), and those land in no pool's report;
    # every other job is counted by exactly one pool.
    for s in ("requests",) + _STATUSES:
        if sum(getattr(p, s) for p in pools) > getattr(report, s):
            out.append(f"pools count more {s} than the whole")
    for i, p in enumerate(pools):
        if p.admitted + p.rejected != p.requests:
            out.append(f"pool {i}: admitted {p.admitted} + rejected "
                       f"{p.rejected} != requests {p.requests}")
        if p.ok + p.timeout + p.degraded + p.failed != p.admitted:
            out.append(f"pool {i}: ok+timeout+degraded+failed != "
                       f"admitted {p.admitted}")
    return out


def failed_jobs(results: Sequence[JobResult]) -> List[str]:
    return [f"job {r.job_id} FAILED: {r.error}" for r in results
            if r.status is JobStatus.FAILED]


def divergence(first: Sequence[JobResult], first_json: str,
               results: Sequence[JobResult], report_json: str
               ) -> List[str]:
    """Differences between two serves of one seed."""
    out = [f"job {a.job_id} differs between serves of one seed"
           for a, b in zip(first, results) if a != b]
    if len(first) != len(results):
        out.append(f"{len(results)} results where the first serve "
                   f"returned {len(first)}")
    if report_json != first_json and not out:
        out.append("canonical report differs between serves of one seed")
    return out


def answer_breaches(trace: Sequence[Job], results: Sequence[JobResult],
                    simulate: bool, verifier: DevicePool) -> List[str]:
    """Check every returned answer (see the module docstring) against
    ``verifier``, a fault-free one-device simulating pool."""
    by_id = {j.job_id: j for j in trace}
    device = verifier.devices[0]
    out = []
    for r in results:
        if not r.answered:
            if r.value_crc != 0:
                out.append(f"job {r.job_id}: {r.status.value} job "
                           f"carries an answer")
            continue
        job = by_id[r.job_id]
        if r.device_id < 0:
            want = value_crc(verifier.reference_values(job))
            if r.value_crc != want:
                out.append(f"job {r.job_id}: reference answer CRC "
                           f"{r.value_crc:#x} != {want:#x}")
            continue
        if not simulate:
            if r.value_crc != 0:
                out.append(f"job {r.job_id}: model-mode answer carries "
                           f"a CRC")
            continue
        att = device.attempt(job, verifier)
        if not att.ok:
            out.append(f"job {r.job_id}: verification attempt failed: "
                       f"{att.error}")
            continue
        if value_crc(att.values) != r.value_crc:
            out.append(f"job {r.job_id}: answer CRC {r.value_crc:#x} != "
                       f"recomputed {value_crc(att.values):#x}")
        ref = verifier.reference_values(job)
        err = np.linalg.norm(att.values - ref) / np.linalg.norm(ref)
        if not err <= RTOL:
            out.append(f"job {r.job_id}: relative error {err:.3g} vs "
                       f"reference exceeds {RTOL:g}")
    return out
