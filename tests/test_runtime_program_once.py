"""Program once per pool: devices bind one shared programmed image.

A pool converts and compiles each ``(dataset, scale, kernel)`` workload
once; every device, and the golden pricing device, runs that image
under its own fault model.  These tests pin the three halves of that
contract: programming happens once per image, a binding behaves exactly
like an accelerator programmed afresh for its device, and no binding
can write into the image its siblings run.
"""

import numpy as np
import pytest

import repro.core.accelerator as accelerator
from repro.core import Alrescha, AlreschaConfig, KernelType
from repro.datasets import load_dataset
from repro.errors import CorruptionError, FaultError
from repro.runtime import DevicePool, Scheduler, SchedulerConfig
from repro.runtime.jobs import Job, TraceSpec, make_trace
from repro.runtime.pool import value_crc
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
        assert pool._golden._executor(j, pool).image is image
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
