"""Program once per fleet: devices bind one shared programmed image.

A pool converts and compiles each ``(dataset, scale, kernel)`` workload
once, and the pools of a fleet share one
:class:`~repro.runtime.pool.WorkloadMemo`, so a fleet programs and
prices each workload once; every device, and the golden pricing device,
runs that image under its own fault model.  These tests pin the three
halves of that contract: programming happens once per image, a binding
behaves exactly like an accelerator programmed afresh for its device,
and no binding can write into the image its siblings run.
"""

import numpy as np
import pytest

import repro.core.accelerator as accelerator
from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.datasets import load_dataset
from repro.errors import CorruptionError, FaultError
from repro.runtime import (DevicePool, Fleet, FleetConfig, Scheduler,
                           SchedulerConfig, WorkloadMemo,
                           fleet_report_json)
from repro.runtime.jobs import Job, TraceSpec, make_trace
from repro.runtime.pool import Device, value_crc
from repro.sim.faults import FaultModel
from repro.solvers import AcceleratorBackend, pcg

SCALE = 0.05
DATASETS = ("stencil27", "af_shell", "economics")


def job(kernel, dataset="stencil27", seed=0, job_id=0):
    return Job(job_id=job_id, kernel=kernel, dataset=dataset, scale=SCALE,
               arrival_cycle=0.0, deadline_cycles=1e9, seed=seed)


class TestProgrammedOncePerPool:
    def test_storeless_pool_converts_and_compiles_once_per_image(
            self, monkeypatch):
        calls = {"convert": 0, "compile_pass": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(accelerator, "convert",
                            counted("convert", accelerator.convert))
        monkeypatch.setattr(accelerator, "compile_pass",
                            counted("compile_pass",
                                    accelerator.compile_pass))
        pairs = tuple((d, k) for d in DATASETS for k in ("spmv", "symgs"))
        pairs += (("stencil27", "pcg"),)
        trace = make_trace(TraceSpec(
            n_requests=80, seed=5, scale=SCALE, workloads=pairs,
            mean_interarrival_cycles=300.0,
            deadline_range=(200_000.0, 400_000.0),
            zero_deadline_prob=0.0))
        pool = DevicePool(4, fault_rate=0.01, seed=5)
        results, _ = Scheduler(pool, SchedulerConfig()).run(trace)

        served = {(j.dataset, j.kernel) for j in trace}
        assert served == set(pairs)
        # All four devices served, so a per-device programming path
        # would convert most workloads several times.
        assert {r.device_id for r in results if r.device_id >= 0} == \
            {0, 1, 2, 3}
        # One image per spmv/symgs workload; pcg programs three
        # (SpMV, forward SymGS, order-reversed SymGS), one plan each.
        images = 2 * len(DATASETS) + 3
        assert calls == {"convert": images, "compile_pass": images}

    def test_devices_and_golden_share_the_pool_image(self):
        pool = DevicePool(3)
        j = job("symgs")
        pool.nominal_cycles(j)
        execs = [d._executor(j, pool) for d in pool.devices]
        image = pool.image(("stencil27", SCALE, "symgs")).image
        assert all(exe.image is image for exe in execs)
        assert pool.memo.golden._executor(j, pool).image is image
        assert len({id(exe) for exe in execs}) == 3

    def test_pools_do_not_share_images(self):
        key = ("stencil27", SCALE, "spmv")
        a, b = DevicePool(1), DevicePool(1)
        assert a.image(key) is a.image(key)
        assert a.image(key).image is not b.image(key).image

    def test_pcg_backend_binds_all_three_images(self):
        pool = DevicePool(2)
        exe = pool.devices[0]._executor(job("pcg"), pool)
        proto = pool.image(("stencil27", SCALE, "pcg"))
        assert [a.image for a in exe.accelerators] == \
            [a.image for a in proto.accelerators]
        assert len(exe.accelerators) == 3


FLEET_PAIRS = (("stencil27", "spmv"), ("stencil27", "symgs"),
               ("af_shell", "spmv"), ("af_shell", "symgs"),
               ("stencil27", "pcg"))


def _fleet_trace():
    return make_trace(TraceSpec(
        n_requests=90, seed=3, scale=SCALE, workloads=FLEET_PAIRS,
        mean_interarrival_cycles=400.0,
        deadline_range=(200_000.0, 400_000.0), zero_deadline_prob=0.0))


def _fleet(execution, fault_rate=0.05):
    """A storeless 3-pool, 2-replica fleet that batches up to 3."""
    return Fleet(2, FleetConfig(n_pools=3, replicas=2),
                 fault_rate=fault_rate, seed=3, execution=execution,
                 scheduler_config=SchedulerConfig(max_batch=3))


class TestProgrammedOncePerFleet:
    @pytest.mark.parametrize("execution", ["model", "simulate"])
    def test_fleet_converts_and_prices_each_workload_once(
            self, monkeypatch, execution):
        calls = {"convert": 0, "compile_pass": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(accelerator, "convert",
                            counted("convert", accelerator.convert))
        monkeypatch.setattr(accelerator, "compile_pass",
                            counted("compile_pass",
                                    accelerator.compile_pass))
        golden = {}

        def golden_counted(fn, batched):
            def wrapper(device, work, pool, *args, **kwargs):
                if device.device_id < 0:
                    jobs = work if batched else [work]
                    key = (jobs[0].dataset, jobs[0].kernel, len(jobs))
                    golden[key] = golden.get(key, 0) + 1
                return fn(device, work, pool, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(Device, "attempt",
                            golden_counted(Device.attempt, False))
        monkeypatch.setattr(Device, "attempt_batch",
                            golden_counted(Device.attempt_batch, True))
        fleet = _fleet(execution)
        trace = _fleet_trace()
        results, _ = fleet.run(trace)

        # Every workload ran on two pools, so programming or pricing
        # per pool would have paid twice.
        by_id = {j.job_id: (j.dataset, j.kernel) for j in trace}
        served = {pair: set() for pair in FLEET_PAIRS}
        for r in results:
            if r.device_id >= 0:
                served[by_id[r.job_id]].add(r.pool_id)
        assert all(len(pools) == 2 for pools in served.values()), served
        assert all(p.memo is fleet.memo for p in fleet.pools)
        # One image per spmv/symgs workload, three for pcg.
        images = 2 * 2 + 3
        assert calls == {"convert": images, "compile_pass": images}
        solo = {key: n for key, n in golden.items() if key[2] == 1}
        batched = {key: n for key, n in golden.items() if key[2] > 1}
        assert {key: n for key, n in solo.items()
                if key[1] != "pcg"} == {
            (d, k, 1): 1 for d, k in FLEET_PAIRS if k != "pcg"}
        # A pcg price follows the pricing job's operand, so the memo
        # keeps one golden run per pricing seed, and a simulating fleet
        # prices pcg only if an attempt fails or degrades.
        pcg_runs = [key for key in fleet.memo.prices if key[2] == "pcg"]
        assert solo.get(("stencil27", "pcg", 1), 0) == len(pcg_runs) <= 2
        if execution == "model":
            assert pcg_runs
        assert batched, "no fused batch was priced"
        assert set(batched.values()) == {1}
        assert len(batched) == len(fleet.memo.batch_prices)

    @pytest.mark.parametrize("execution", ["model", "simulate"])
    def test_faulty_pool_leaves_siblings_as_per_pool_programming(
            self, execution):
        def served(shared):
            fleet = _fleet(execution, fault_rate=0.0)
            base = FaultModel(rate=0.4, seed=17)
            for i, device in enumerate(fleet.pools[0].devices):
                device.fault_model = base.spawn(i)
            if not shared:
                for pool in fleet.pools:
                    pool.memo = WorkloadMemo()
            results, report = fleet.run(_fleet_trace())
            logs = [[(e.index, e.kind, e.retry_cycles)
                     for e in d.fault_model.log]
                    for d in fleet.pools[0].devices if d.fault_model]
            refs = {p.memo is fleet.memo for p in fleet.pools}
            return results, fleet_report_json(report), logs, refs

        results, report, logs, shared_refs = served(shared=True)
        own_results, own_report, own_logs, own_refs = served(shared=False)
        assert shared_refs == {True} and own_refs == {False}
        assert results == own_results
        assert report == own_report
        assert logs == own_logs
        faulted = [r for r in results if r.pool_id == 0 and r.attempts > 1]
        assert faulted, "the faulty pool never retried"
        siblings = [r for r in results
                    if r.pool_id in (1, 2) and r.device_id >= 0]
        assert siblings
        if execution == "simulate":
            assert all(r.value_crc != 0 for r in siblings)
            assert any(r.value_crc != 0 and r.device_id >= 0
                       for r in results if r.pool_id == 0)


class TestFrozenImage:
    def test_in_place_writes_raise_and_leave_siblings_intact(self):
        pool = DevicePool(2)
        spmv, symgs = job("spmv", seed=3), job("symgs", seed=3)
        dev0, dev1 = pool.devices
        before = [value_crc(dev1.attempt(j, pool).values)
                  for j in (spmv, symgs)]
        exe = dev0._executor(spmv, pool)
        sym = dev0._executor(symgs, pool)
        plan = exe.image.plans["spmv"]
        sym_plan = sym.image.plans["symgs"]
        body = next(r.body for r in sym_plan.rows if r.body is not None)
        targets = [
            exe.image.rows[0].streaming[0].values,
            plan.blocks, plan.gather, plan.src_base,
            plan.artifacts.seg_len,
            sym_plan.blocks, sym_plan.gather, sym_plan._diag_pad, body,
            sym.image.rows[0].diagonal.values,
        ]
        for arr in targets:
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 1.0
        after = [value_crc(dev1.attempt(j, pool).values)
                 for j in (spmv, symgs)]
        assert after == before

    def test_minplus_masks_are_frozen(self):
        matrix = load_dataset("stencil27", SCALE).matrix
        acc = Alrescha.from_matrix(KernelType.BFS, matrix)
        acc.compile_plans()
        with pytest.raises(ValueError, match="read-only"):
            acc.image.plans["bfs"].masks[0, 0, 0] = False


def _reference_run(exe, kernel, operand):
    """One attempt on an accelerator programmed outside the pool."""
    try:
        if kernel == "spmv":
            values, report = exe.run_spmv(operand)
        elif kernel == "symgs":
            values, report = exe.run_symgs_sweep(
                operand, np.zeros(operand.size))
        elif kernel == "pcg":
            exe.reset_reports()
            result = pcg(exe, operand, tol=1e-6, max_iter=25,
                         checkpoint_interval=5, max_restarts=2)
            values, report = result.x, result.report
        else:
            values, report = exe.run_spmv_batch(operand)
        return True, report.cycles, value_crc(values)
    except (FaultError, CorruptionError):
        return False, None, 0


class TestFaultIsolationAcrossSharedImage:
    def test_bindings_match_accelerators_programmed_per_device(self):
        seed, rate = 11, 0.4
        pool = DevicePool(3, fault_rate=rate, seed=seed)
        base = FaultModel(rate=rate, seed=seed)
        own = []
        for i in range(3):
            fm = base.spawn(i)
            config = AlreschaConfig(fault_model=fm)
            execs = {}
            for dataset in ("stencil27", "af_shell"):
                m = load_dataset(dataset, SCALE).matrix
                execs[(dataset, "spmv")] = Alrescha.from_matrix(
                    KernelType.SPMV, m, config=config)
                execs[(dataset, "symgs")] = Alrescha.from_matrix(
                    KernelType.SYMGS, m, config=config)
            execs[("stencil27", "pcg")] = AcceleratorBackend(
                load_dataset("stencil27", SCALE).matrix, config=config)
            own.append((fm, execs))

        plan = [("stencil27", "spmv"), ("af_shell", "symgs"),
                ("stencil27", "symgs"), ("af_shell", "spmv"),
                ("stencil27", "pcg")] * 3
        pooled_out, own_out = [], []
        for step, (dataset, kernel) in enumerate(plan):
            # Round-robin: every device's run lands between its
            # siblings' runs on the same image.
            for i, device in enumerate(pool.devices):
                j = job(kernel, dataset, seed=100 + step)
                att = device.attempt(j, pool)
                pooled_out.append((att.ok, att.ok and att.cycles,
                                   value_crc(att.values)
                                   if att.ok else 0))
                ok, cycles, crc = _reference_run(
                    own[i][1][(dataset, kernel)], kernel,
                    pool.operand(j))
                own_out.append((ok, ok and cycles, crc))
            # One fused batch per step exercises the shared per-width
            # batch templates too.
            if kernel == "spmv":
                jobs = [job(kernel, dataset, seed=500 + step + k)
                        for k in range(3)]
                for i, device in enumerate(pool.devices):
                    att = device.attempt_batch(jobs, pool)
                    pooled_out.append((att.ok, att.ok and att.cycles,
                                       value_crc(att.values)
                                       if att.ok else 0))
                    panel = np.stack([pool.operand(j) for j in jobs],
                                     axis=1)
                    ok, cycles, crc = _reference_run(
                        own[i][1][(dataset, kernel)], "batch", panel)
                    own_out.append((ok, ok and cycles, crc))
        assert pooled_out == own_out
        assert any(not ok for ok, _, _ in own_out)
        assert any(ok for ok, _, _ in own_out)
        for device, (fm, _) in zip(pool.devices, own):
            pooled_log = [(e.index, e.kind, e.retry_cycles)
                          for e in device.fault_model.log]
            assert pooled_log == [(e.index, e.kind, e.retry_cycles)
                                  for e in fm.log]
            assert pooled_log
            assert device.fault_model.total_retry_cycles == \
                fm.total_retry_cycles

    def test_crosscheck_degrade_stays_on_its_own_binding(self):
        matrix = load_dataset("stencil27", SCALE).matrix
        proto = Alrescha.from_matrix(
            KernelType.SPMV, matrix,
            config=AlreschaConfig(verify_checksums=False,
                                  crosscheck_rows=1.0,
                                  crosscheck_threshold=1))
        sick = proto.bind(FaultModel(rate=0.25, seed=11,
                                     kinds=("bitflip",)))
        healthy = [proto.bind(None), proto.bind(FaultModel(rate=0.0))]
        x = np.arange(matrix.shape[0], dtype=np.float64)
        y_clean, _ = healthy[0].run_spmv(x)
        y, rep = sick.run_spmv(x)
        assert rep.counters.get("plan_fallbacks") == 1.0
        assert sick.plan_degraded
        assert np.array_equal(y, y_clean)
        for acc in healthy:
            y_h, rep_h = acc.run_spmv(x)
            assert not acc.plan_degraded
            assert rep_h.counters.get("plan_fallbacks") == 0.0
            assert rep_h.counters.get("crosscheck_rows") > 0
            assert np.array_equal(y_h, y_clean)
        assert "spmv" in proto.image.plans

    def test_bind_requires_a_programmed_accelerator(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Alrescha().bind(None)
