"""A tour of the APGAS substrate — the paper's §II constructs in Python.

Shows the X10 programming model the reproduction is built on: places,
``finish`` / ``at`` task parallelism, state kept under keys in each place's
own heap, failure semantics, and the virtual clock that makes timing
deterministic.

Run:  python examples/apgas_tour.py
"""

from repro import CostModel, DeadPlaceException, Place, Runtime

rt = Runtime(nplaces=4, cost=CostModel.laptop(), resilient=True)
print(f"world: {rt.world.ids}")

# -- finish { for (p in world) at (p) async ... } (Listing in §II) ----------
# Every place computes a partial sum; the finish blocks until all complete
# and returns their values in group order.
partials = rt.finish_all(
    rt.world, lambda ctx: sum(range(ctx.place.id * 100)), label="partial-sums"
)
print(f"partials gathered through the finish: {partials}")

# -- at: an object lives in its home place's heap ---------------------------
# Only a task running at place 2 can reach the entry, as only place 2 can
# dereference a GlobalRef homed there.  ``at (p) S`` blocks until S has run
# at p: it is a finish over one task, and costs and counts as one.
rt.at(Place(2), lambda ctx: ctx.heap.put("counter", {"hits": 0}))


def bump(ctx):
    ctx.heap.get("counter")["hits"] += 1


for _ in range(3):
    rt.at(Place(2), bump)
print("counter at place 2:", rt.at(Place(2), lambda ctx: dict(ctx.heap.get("counter"))))

# -- one value per place under one key (X10's PlaceLocalHandle) -------------
rt.finish_all(rt.world, lambda ctx: ctx.heap.put("local", [ctx.place.id] * 2))
print("per-place values:", rt.finish_all(rt.world, lambda ctx: ctx.heap.get("local")))

# -- failure semantics -------------------------------------------------------
rt.kill(3)
try:
    rt.finish_all(rt.world, lambda ctx: None)
except DeadPlaceException as exc:
    print(f"finish surfaced the failure: place {exc.place_id} is dead")

# The dead place's heap died with it; the survivors rebuild the family.
survivors = rt.live_world()
rt.finish_all(survivors, lambda ctx: ctx.heap.put("local", "rebuilt"))
print("per-place values rebuilt over survivors:", survivors.ids)

# -- deterministic virtual time ----------------------------------------------
print(f"virtual time: {rt.now() * 1e3:.3f} ms ({rt.stats.finishes} finishes)")
print("re-running this script reproduces these numbers exactly.")
