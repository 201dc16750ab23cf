"""``make_trace`` draws the identical trace the ``random`` calls drew.

The generator spells out ``expovariate``, ``uniform`` and one-draw
``choices`` as the arithmetic they perform, and builds each frozen
:class:`~repro.runtime.jobs.Job` without its generated ``__init__``.
Record/replay fixtures, the fingerprint corpus and every seeded report
depend on the trace bits, so this file pins the generator against a
literal transcription of the library-call version, kept here as the
oracle, over every shape, several seeds and the deadline and priority
corner cases.
"""

import math
import pickle
import random
from dataclasses import asdict, replace

import pytest

from repro.runtime.jobs import Job, TraceSpec, make_trace


def library_call_trace(spec: TraceSpec):
    """The generator as written against the ``random`` API: every draw
    is a ``Random`` method call, every job a ``Job(...)`` call."""
    rng = random.Random(spec.seed)
    jobs = []
    cycle = 0.0
    if spec.shape == "exponential":
        for i in range(spec.n_requests):
            cycle += rng.expovariate(
                1.0 / spec.mean_interarrival_cycles)
            dataset, kernel = spec.workloads[
                rng.randrange(len(spec.workloads))]
            if rng.random() < spec.zero_deadline_prob:
                deadline = 0.0
            else:
                deadline = rng.uniform(*spec.deadline_range)
            priority = rng.choices(spec.priorities,
                                   weights=spec.priority_weights)[0]
            jobs.append(Job(
                job_id=i,
                kernel=kernel,
                dataset=dataset,
                scale=spec.scale,
                arrival_cycle=cycle,
                deadline_cycles=deadline,
                priority=priority,
                seed=spec.seed * 100_003 + i,
            ))
        return jobs

    parts = set(spec.shape.split("+"))
    bursty = "bursty" in parts
    diurnal = "diurnal" in parts
    zipf = "zipf" in parts
    weights = ([1.0 / (rank + 1) ** spec.zipf_exponent
                for rank in range(len(spec.workloads))]
               if zipf else None)
    in_burst = False
    burst_until = (rng.expovariate(1.0 / spec.quiet_mean_cycles)
                   if bursty else 0.0)
    for i in range(spec.n_requests):
        mean = spec.mean_interarrival_cycles
        if bursty:
            while cycle >= burst_until:
                in_burst = not in_burst
                dwell_mean = (spec.burst_mean_cycles if in_burst
                              else spec.quiet_mean_cycles)
                burst_until += rng.expovariate(1.0 / dwell_mean)
            if in_burst:
                mean /= spec.burst_factor
        if diurnal:
            phase = 2.0 * math.pi * cycle / spec.diurnal_period_cycles
            rate_mod = 1.0 + spec.diurnal_amplitude * math.sin(phase)
            mean /= max(rate_mod, 0.05)
        cycle += rng.expovariate(1.0 / mean)
        if zipf:
            dataset, kernel = rng.choices(spec.workloads,
                                          weights=weights)[0]
        else:
            dataset, kernel = spec.workloads[
                rng.randrange(len(spec.workloads))]
        if rng.random() < spec.zero_deadline_prob:
            deadline = 0.0
        else:
            deadline = rng.uniform(*spec.deadline_range)
        priority = rng.choices(spec.priorities,
                               weights=spec.priority_weights)[0]
        jobs.append(Job(
            job_id=i,
            kernel=kernel,
            dataset=dataset,
            scale=spec.scale,
            arrival_cycle=cycle,
            deadline_cycles=deadline,
            priority=priority,
            seed=spec.seed * 100_003 + i,
        ))
    return jobs


SHAPES = ("exponential", "bursty", "diurnal", "zipf", "bursty+zipf",
          "bursty+diurnal+zipf")
SEEDS = (0, 1, 7, 1000, 60013)
FIVE_WORKLOADS = (("stencil27", "spmv"), ("stencil27", "symgs"),
                  ("af_shell", "spmv"), ("af_shell", "symgs"),
                  ("stencil27", "pcg"))


def _assert_identical(spec):
    want = library_call_trace(spec)
    got = make_trace(spec)
    assert len(got) == len(want) == spec.n_requests
    # ``asdict`` keeps field order and float bits; pickling the lists
    # compares the floats bit for bit (``==`` would let -0.0 == 0.0).
    assert pickle.dumps([asdict(j) for j in got]) == \
        pickle.dumps([asdict(j) for j in want])
    assert got == want


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_shape_and_seed_draws_the_library_trace(shape, seed):
    _assert_identical(TraceSpec(n_requests=400, seed=seed, shape=shape,
                                workloads=FIVE_WORKLOADS,
                                mean_interarrival_cycles=280.0,
                                burst_factor=3.0))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("zero_deadline_prob", (0.0, 1.0))
def test_zero_deadline_extremes(shape, zero_deadline_prob):
    # 0 draws every deadline from the range, 1 none: both skip or take
    # the uniform draw on every job, so the stream must stay in step.
    _assert_identical(TraceSpec(n_requests=200, seed=3, shape=shape,
                                zero_deadline_prob=zero_deadline_prob))


@pytest.mark.parametrize("shape", ("exponential", "bursty+zipf"))
def test_single_priority_and_single_workload(shape):
    # A one-entry population still spends its draws: ``choices`` with
    # one weight and ``randrange(1)`` consume the stream as usual.
    _assert_identical(TraceSpec(n_requests=150, seed=11, shape=shape,
                                priorities=(2,),
                                priority_weights=(1.0,)))
    _assert_identical(TraceSpec(n_requests=150, seed=12, shape=shape,
                                workloads=(("af_shell", "pcg"),)))


def test_empty_trace():
    assert make_trace(TraceSpec(n_requests=0, shape="bursty")) == []


@pytest.mark.parametrize("weights, message", [
    ((0.5, 0.5), "does not match the population"),
    ((0.0, 0.0, 0.0), "greater than zero"),
    ((1.0, math.inf, 1.0), "finite"),
])
def test_bad_priority_weights_fail_like_choices(weights, message):
    spec = TraceSpec(n_requests=5, seed=1, priority_weights=weights)
    with pytest.raises(ValueError, match=message):
        library_call_trace(spec)
    with pytest.raises(ValueError, match=message):
        make_trace(spec)


def test_jobs_behave_like_constructed_ones():
    # Traced jobs are built without ``Job.__init__``; that is only the
    # same object while construction runs no hook of its own.
    assert not hasattr(Job, "__post_init__")
    spec = TraceSpec(n_requests=50, seed=5, shape="bursty+zipf")
    for got, want in zip(make_trace(spec), library_call_trace(spec)):
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert asdict(got) == asdict(want)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert pickle.loads(pickle.dumps(got)) == want
        moved = replace(got, arrival_cycle=got.arrival_cycle + 1.0)
        assert moved == replace(want, arrival_cycle=want.arrival_cycle
                                + 1.0)
        with pytest.raises(AttributeError):
            got.priority = 9
