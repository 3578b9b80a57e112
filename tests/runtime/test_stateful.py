"""Hypothesis stateful testing of the runtime's core invariants.

A random interleaving of finishes, point-to-point transfers, kills, spare
claims and elastic place creation must never violate:

* virtual clocks are monotone non-decreasing per place;
* dead places stay dead and their heaps stay destroyed;
* the driver's clock is the maximum the finish protocol requires;
* statistics counters are consistent (finishes counted once, task counts
  match live places).
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.runtime import CostModel, DeadPlaceException, MultipleException, Runtime


class RuntimeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rt = Runtime(
            5, cost=CostModel.laptop(), resilient=True, spares=1
        )
        self.clock_floor = {pid: 0.0 for pid in range(6)}
        self.finishes_seen = 0

    # -- helpers -----------------------------------------------------------

    def _live_ids(self):
        return [pid for pid in self.clock_floor if self.rt.is_alive(pid)]

    # -- rules -----------------------------------------------------------------

    @rule(data=st.data())
    def run_finish(self, data):
        group = self.rt.live_world()
        if group.size == 0:
            return
        flops = data.draw(st.floats(0, 1e6))
        try:
            self.rt.finish_all(group, lambda ctx: ctx.charge_flops(flops))
        except (DeadPlaceException, MultipleException):
            pass
        self.finishes_seen += 1

    @rule(data=st.data())
    def transfer(self, data):
        live = self._live_ids()
        if len(live) < 2:
            return
        src = data.draw(st.sampled_from(live))
        dst = data.draw(st.sampled_from([p for p in live if p != src]))
        nbytes = data.draw(st.floats(0, 1e6))
        done = self.rt.transfer(src, dst, nbytes, self.rt.clock.now(src))
        assert done >= self.rt.clock.now(src) or nbytes == 0

    @rule(data=st.data())
    def kill_place(self, data):
        candidates = [pid for pid in self._live_ids() if pid != 0]
        if not candidates:
            return
        victim = data.draw(st.sampled_from(candidates))
        self.rt.kill(victim)
        assert not self.rt.is_alive(victim)

    @rule()
    def claim_spare(self):
        spare = self.rt.claim_spare()
        if spare is not None:
            assert self.rt.is_alive(spare.id)

    @rule()
    def add_elastic_place(self):
        place = self.rt.add_place()
        self.clock_floor[place.id] = self.rt.clock.now(place.id)
        assert self.rt.is_alive(place.id)

    @rule(data=st.data())
    def heap_roundtrip(self, data):
        live = self._live_ids()
        if not live:
            return
        pid = data.draw(st.sampled_from(live))
        value = data.draw(st.integers())
        self.rt.heap_of(pid).put("probe", value)
        assert self.rt.heap_of(pid).get("probe") == value

    # -- invariants -----------------------------------------------------------

    @invariant()
    def clocks_never_go_backwards(self):
        for pid, floor in list(self.clock_floor.items()):
            if pid in self.rt.clock:
                now = self.rt.clock.now(pid)
                assert now >= floor - 1e-12
                self.clock_floor[pid] = now

    @invariant()
    def place_zero_immortal(self):
        assert self.rt.is_alive(0)

    @invariant()
    def dead_heaps_stay_destroyed(self):
        for pid in self.rt.dead_ids():
            with_pytest_raises = False
            try:
                self.rt.heap_of(pid)
            except DeadPlaceException:
                with_pytest_raises = True
            assert with_pytest_raises

    @invariant()
    def stats_consistent(self):
        assert self.rt.stats.finishes >= self.finishes_seen
        assert self.rt.stats.tasks >= 0


TestRuntimeMachine = RuntimeMachine.TestCase
