"""Event heap: total ordering, counters, lazy-deletion bookkeeping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Event, EventKind, EventQueue


class TestTotalOrder:
    def test_cycle_is_the_primary_key(self):
        q = EventQueue()
        q.push(20.0, EventKind.ARRIVAL, 1)
        q.push(10.0, EventKind.DEADLINE_EXPIRY, 2)
        q.push(15.0, EventKind.DISPATCH_COMPLETE, 0)
        assert [e.cycle for e in (q.pop(), q.pop(), q.pop())] \
            == [10.0, 15.0, 20.0]

    def test_kind_breaks_cycle_ties_in_declared_order(self):
        # Coincident events process as: arrival, dispatch-complete,
        # breaker-reopen, deadline-expiry, device-crash.
        q = EventQueue()
        kinds = [EventKind.DEADLINE_EXPIRY, EventKind.ARRIVAL,
                 EventKind.BREAKER_REOPEN, EventKind.DEVICE_CRASH,
                 EventKind.DISPATCH_COMPLETE]
        for k in kinds:
            q.push(5.0, k, 0)
        popped = [q.pop().kind for _ in range(len(kinds))]
        assert popped == sorted(int(k) for k in kinds)

    def test_key_breaks_kind_ties(self):
        q = EventQueue()
        for key in (7, 3, 5):
            q.push(5.0, EventKind.BREAKER_REOPEN, key)
        assert [q.pop().key for _ in range(3)] == [3, 5, 7]

    def test_seq_makes_exact_duplicates_fifo(self):
        q = EventQueue()
        first = q.push(5.0, EventKind.ARRIVAL, 1)
        second = q.push(5.0, EventKind.ARRIVAL, 1)
        assert first.seq < second.seq
        assert q.pop() is not second
        assert q.pop() is second

    def test_event_tuple_shape(self):
        e = Event(1.0, int(EventKind.ARRIVAL), 3, 0)
        assert (e.cycle, e.kind, e.key, e.seq) == (1.0, 0, 3, 0)


class TestQueueMechanics:
    def test_len_bool_peek(self):
        q = EventQueue()
        assert not q and len(q) == 0
        assert q.peek() is None
        q.push(1.0, EventKind.ARRIVAL, 0)
        assert q and len(q) == 1
        assert q.peek().cycle == 1.0
        assert len(q) == 1  # peek does not consume

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_counters(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, 0)
        q.push(2.0, EventKind.ARRIVAL, 1)
        q.pop()
        q.mark_stale()
        assert (q.pushed, q.popped, q.stale) == (2, 1, 1)

    def test_pop_at_drains_exactly_the_coincident_events(self):
        q = EventQueue()
        q.push(5.0, EventKind.DEADLINE_EXPIRY, 1)
        q.push(6.0, EventKind.ARRIVAL, 0)
        q.push(5.0, EventKind.ARRIVAL, 2)
        q.push(5.0, EventKind.DISPATCH_COMPLETE, 0)
        assert q.pop_at(4.0) == []
        drained = q.pop_at(5.0)
        assert [(e.kind, e.key) for e in drained] == [
            (EventKind.ARRIVAL, 2), (EventKind.DISPATCH_COMPLETE, 0),
            (EventKind.DEADLINE_EXPIRY, 1)]
        assert q.popped == 3 and len(q) == 1
        assert q.peek().cycle == 6.0

    def test_identical_push_sequence_pops_identically(self):
        # The order is a pure function of the pushed tuples — two
        # queues fed the same sequence drain in the same order, which
        # is what makes a heap-cored run replayable.
        seq = [(3.0, EventKind.DEADLINE_EXPIRY, 2),
               (1.0, EventKind.ARRIVAL, 9),
               (3.0, EventKind.ARRIVAL, 4),
               (2.0, EventKind.BREAKER_REOPEN, 0),
               (3.0, EventKind.ARRIVAL, 1)]
        a, b = EventQueue(), EventQueue()
        for item in seq:
            a.push(*item)
            b.push(*item)
        drained_a = [a.pop() for _ in range(len(seq))]
        drained_b = [b.pop() for _ in range(len(seq))]
        assert drained_a == drained_b
        assert [(e.cycle, e.kind, e.key) for e in drained_a] == [
            (1.0, 0, 9), (2.0, 3, 0), (3.0, 0, 1), (3.0, 0, 4),
            (3.0, 4, 2)]


class TestLifecycleKinds:
    def test_new_kinds_sort_after_the_original_five(self):
        # DEVICE_*/HEDGE_TIMER were appended to the enum, so at a
        # coincident cycle every pre-chaos kind still drains in its
        # historical position — the ordering half of the "chaos off is
        # inert" guarantee.  (Four of the original five are still
        # live; the fifth, a retry-ready wake, was retired.)
        originals = [EventKind.ARRIVAL, EventKind.DISPATCH_COMPLETE,
                     EventKind.BREAKER_REOPEN, EventKind.DEADLINE_EXPIRY]
        newcomers = [EventKind.DEVICE_CRASH, EventKind.DEVICE_HANG,
                     EventKind.DEVICE_RECOVER, EventKind.HEDGE_TIMER]
        assert max(int(k) for k in originals) \
            < min(int(k) for k in newcomers)
        q = EventQueue()
        for k in newcomers + originals:
            q.push(5.0, k, 0)
        drained = []
        while q:
            drained.append(q.pop().kind)
        assert drained[:len(originals)] == sorted(
            int(k) for k in originals)

    def test_push_returns_the_live_event_object(self):
        q = EventQueue()
        first = q.push(1.0, EventKind.HEDGE_TIMER, 9)
        second = q.push(1.0, EventKind.HEDGE_TIMER, 9)
        # Identity, not equality, is how the scheduler supersedes a
        # timer: the stored reference pins exactly one pushed event.
        assert first is not second
        assert q.pop() is first
        assert q.pop() is second


class TestLazyDeletionProperty:
    """Satellite of the chaos PR: the scheduler cancels in-flight work
    (hedge losers, crash-voided completions) by *superseding* the live
    event reference and letting the heap entry die stale.  The
    property: however cancellations interleave with pushes, a stale
    entry is counted in ``stale``, never applied, and the survivors'
    drain order is untouched."""

    @given(
        ops=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False),
                st.integers(min_value=0, max_value=5),   # key (job id)
            ),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_cancelled_events_go_stale_not_applied(self, ops):
        q = EventQueue()
        live = {}          # key -> the one event allowed to act
        superseded = 0
        for cycle, key in ops:
            event = q.push(cycle, EventKind.DISPATCH_COMPLETE, key)
            if key in live:
                superseded += 1   # old entry still in heap, now dead
            live[key] = event
        state = {}         # key -> cycle the applied event carried
        applied = 0
        while q:
            event = q.pop()
            if live.get(event.key) is event:
                state[event.key] = event.cycle
                applied += 1
            else:
                q.mark_stale()
        # Every push is accounted exactly once: applied or stale.
        assert applied + q.stale == len(ops)
        assert q.stale == superseded
        # Job state was only ever touched by the live survivor.
        assert state == {k: e.cycle for k, e in live.items()}

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_cancel_order_does_not_perturb_survivors(self, seed):
        rng = random.Random(seed)
        pushes = [(rng.uniform(0, 50), rng.randrange(4))
                  for _ in range(20)]
        def drain(cancel_indices):
            q = EventQueue()
            events = [q.push(c, EventKind.HEDGE_TIMER, k)
                      for c, k in pushes]
            dead = {id(events[i]) for i in cancel_indices}
            out = []
            while q:
                e = q.pop()
                if id(e) in dead:
                    q.mark_stale()
                else:
                    out.append((e.cycle, e.kind, e.key, e.seq))
            return out
        cancels = rng.sample(range(20), 8)
        # Survivor order is independent of *when* the cancellations
        # were decided — cancelling is pure metadata, the heap order
        # is fixed at push time.
        assert drain(cancels) == drain(list(reversed(cancels)))
        full = drain([])
        survivors = drain(cancels)
        assert [x for x in full if x in survivors] == survivors
