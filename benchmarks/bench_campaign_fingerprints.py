"""Campaign outcome fingerprints — the fixed behaviour of the chaos harness.

Runs 43 seeded chaos campaigns (5,020 schedules, and the 600 of the prefix
cells once more with the cache off) and records, per campaign,
the sha256 (first 16 hex) of its json-dumped per-schedule outcomes and its
status counts:

* cg / linreg / pagerank x six store shapes (parity, parity + disk + delta,
  spread + disk + corruption, ring + delta, every transient axis, parity +
  heavy corruption), 100 schedules at seed 7;
* cg under checkpoint-free recovery with 6 and 2 spares;
* three prefix-cache cells at 200 schedules (seed 13, 8 places, 10
  iterations, 2 spares), each run cache-off and cache-on — the two must be
  bitwise identical;
* linreg / logreg / pagerank / cg x parity:2|4 x full | delta + disk at 120
  schedules, and each app under parity:2 + corruption + a failure detector.

No campaign may report an invariant violation.  Writes
``results/campaign_fingerprints.txt``; every entry is a pure function of
the code under ``src/``, so a refactor that claims to leave behaviour alone
leaves this file byte-identical (CI's ``artifacts-reproducible`` diffs it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter

from _common import emit, results_path
from repro.chaos import CampaignConfig, run_campaign

SHAPES = {
    "parity2": dict(placement="parity:2", replicas=1, spares=2),
    "parity4-disk-delta": dict(placement="parity:4", replicas=1, places=8, spares=2,
                               stable_fallback=True, ckpt_delta=True),
    "spread2-disk-corrupt": dict(replicas=2, placement="spread", stable_fallback=True,
                                 corrupt_rate=0.05),
    "ring-delta": dict(replicas=1, placement="ring", ckpt_delta=True),
    "transient-full": dict(drop_rate=0.05, dup_rate=0.02, straggler_max=4.0,
                           corrupt_rate=0.02, detect_timeout=0.5, partition_rate=0.3),
    "parity2-corrupt": dict(placement="parity:2", replicas=1, spares=2, corrupt_rate=0.2),
}

#: The prefix-cache cells: (app, recovery), all valid pairs.
PREFIX_CELLS = (("linreg", "checkpoint"), ("cg", "checkpoint"), ("cg", "reconstruct"))


def fingerprint(result) -> str:
    blob = json.dumps([dataclasses.asdict(o) for o in result.outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def campaigns():
    """Every (name, config) of the set, in output order."""
    for app in ("cg", "linreg", "pagerank"):
        for shape, kw in SHAPES.items():
            yield f"{app}-{shape}", CampaignConfig(app=app, schedules=100, seed=7, **kw)
    for spares, schedules in ((6, 200), (2, 100)):
        yield f"cg-reconstruct-spares{spares}", CampaignConfig(
            app="cg", schedules=schedules, seed=13, places=8, spares=spares,
            recovery="reconstruct",
        )
    for app, recovery in PREFIX_CELLS:
        yield f"prefix-{app}-{recovery}", CampaignConfig(
            app=app, schedules=200, seed=13, places=8, iterations=10, spares=2,
            recovery=recovery,
        )
    for app in ("linreg", "logreg", "pagerank", "cg"):
        for g in (2, 4):
            for variant, kw in (("full", {}),
                                ("delta-disk", dict(ckpt_delta=True, stable_fallback=True))):
                yield f"{app}-parity{g}-{variant}", CampaignConfig(
                    app=app, schedules=120, seed=1234, places=8, spares=2,
                    placement=f"parity:{g}", replicas=1, **kw,
                )
        yield f"{app}-parity2-corrupt-detector", CampaignConfig(
            app=app, schedules=100, seed=1234, places=8, spares=2,
            placement="parity:2", replicas=1, corrupt_rate=0.05, detect_timeout=0.5,
        )


def run_all():
    rows = []
    for name, config in campaigns():
        result = run_campaign(config)
        if name.startswith("prefix-"):
            off = run_campaign(config, prefix_cache=False)
            assert fingerprint(off) == fingerprint(result), name
        rows.append((name, config.schedules, result))
    return rows


def test_campaign_fingerprints(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = []
    for name, _, result in rows:
        assert not result.violations, result.summary()
        counts = " ".join(f"{k}={v}" for k, v in sorted(Counter(
            o.status for o in result.outcomes).items()))
        lines.append(f"{name} {fingerprint(result)} {counts}")
    schedules = sum(n for _, n, _ in rows)
    lines.append(f"campaigns {len(rows)} schedules {schedules}")
    with open(results_path("campaign_fingerprints.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    emit("Campaign outcome fingerprints", "\n".join(lines))
    assert len(rows) == 43
