"""One world specification: every configuration is judged before a runtime
exists, and every configuration it accepts builds and runs.

The product tests draw :class:`~repro.world.WorldSpec` and
:class:`~repro.chaos.CampaignConfig` values with out-of-range fields
included.  Each one either fails :meth:`WorldSpec.validate` (or the config's
construction) with one ``ValueError`` line while ``Runtime.__init__`` is
never entered, or builds, and its short run ends in a report or a
``DataLossError`` — never in any other exception.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import failure_free_result
from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.chaos import CampaignConfig, run_schedule, schedule_spec
from repro.resilience.executor import RestoreMode
from repro.runtime.exceptions import DataLossError
from repro.runtime.runtime import Runtime
from repro.world import WorldSpec

#: One out-of-range (or unknown) value per field; a drawn configuration
#: takes at most one of them on top of an in-range draw.
OUT_OF_RANGE = dict(
    app="fft", places=0, iterations=0, workload="huge", spares=-1, replicas=-1,
    placement="mirror", checkpoint_interval=0, checkpoint_mode="async", mode="bogus",
    spare_fallback=RestoreMode.REPLACE_REDUNDANT, recovery="abft", fail_at=(9,),
    victim=(-1,), mttf=0.0, straggler=((1, -1.0),), drop_rate=1.0, dup_rate=-0.1,
    delay_rate=2.0, delay_seconds=-1.0, corrupt_rate=1.0, detect_timeout=-1.0,
    heartbeat_interval=0.0,
)
CAMPAIGN_OUT_OF_RANGE = dict(
    app="gnmf", schedules=0, places=1, iterations=1, checkpoint_interval=0, replicas=-1,
    placement="stride:x", spares=-1, drop_rate=1.0, dup_rate=-0.1, straggler_max=0.5,
    corrupt_rate=2.0, detect_timeout=-1.0, partition_rate=2.0, recovery="abft",
)
RATE = st.sampled_from([0.0, 0.0, 0.05])
PLACEMENT = st.sampled_from(["ring", "spread", "stride:2", "parity", "parity:2"])


def _perturbed(draw, fields, out_of_range):
    for name in draw(st.lists(st.sampled_from(sorted(out_of_range)), max_size=1)):
        fields[name] = out_of_range[name]
    return fields


@st.composite
def world_specs(draw):
    app, places, iterations = (
        draw(st.sampled_from(sorted(APPS))), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    )
    fields = dict(app=app, places=places, iterations=iterations, workload="tiny")
    if draw(st.integers(0, 3)):  # three in four: a resilient world with every axis
        spares = draw(st.integers(0, 2))
        killable = places + spares - 1
        fail_at = draw(st.lists(st.integers(-1, iterations - 1), max_size=min(2, killable)))
        victims = st.integers(1, killable) if killable else st.nothing()
        fields.update(
            spares=spares,
            replicas=draw(st.none() | st.integers(0, 2)),
            placement=draw(st.none() | PLACEMENT),
            stable_fallback=draw(st.booleans()),
            checkpoint_interval=draw(st.integers(1, 3)),
            checkpoint_mode=draw(st.sampled_from(["blocking", "overlapped"])),
            ckpt_delta=draw(st.booleans()),
            mode=draw(st.sampled_from([m.value for m in RestoreMode])),
            spare_fallback=draw(st.sampled_from(list(RestoreMode)[:2])),
            recovery=draw(st.sampled_from(["checkpoint", "reconstruct"]))
            if app == "cg"
            else "checkpoint",
            fail_at=tuple(fail_at),
            victim=tuple(
                draw(st.lists(victims, min_size=len(fail_at), max_size=len(fail_at), unique=True))
            ),
            mttf=draw(st.none() | st.sampled_from([0.01, 50.0])),
            seed=draw(st.integers(0, 3)),
            straggler=tuple(
                draw(st.lists(st.tuples(st.integers(0, places - 1), st.sampled_from([0.5, 4.0])),
                              max_size=1))
            ),
            drop_rate=draw(RATE),
            dup_rate=draw(RATE),
            delay_rate=draw(RATE),
            delay_seconds=draw(st.sampled_from([0.0, 0.01])),
            corrupt_rate=draw(st.sampled_from([0.0, 0.0, 0.1])),
            detect_timeout=draw(st.sampled_from([0.0, 0.0, 0.5])),
        )
        if fields["detect_timeout"]:
            fields["heartbeat_interval"] = draw(st.none() | st.just(0.05))
    else:  # a non-resilient world reads only its shape
        fields["resilient"] = False
    return WorldSpec(**_perturbed(draw, fields, OUT_OF_RANGE))


@st.composite
def campaign_fields(draw):
    fields = dict(
        app=draw(st.sampled_from(CHAOS_APP_NAMES)),
        schedules=1,
        seed=draw(st.integers(0, 3)),
        places=draw(st.integers(2, 6)),
        iterations=draw(st.integers(2, 4)),
        checkpoint_interval=draw(st.integers(1, 3)),
        replicas=draw(st.none() | st.integers(0, 2)),
        placement=draw(PLACEMENT),
        stable_fallback=draw(st.booleans()),
        spares=draw(st.integers(0, 2)),
        drop_rate=draw(RATE),
        dup_rate=draw(RATE),
        straggler_max=draw(st.sampled_from([1.0, 1.0, 4.0])),
        corrupt_rate=draw(st.sampled_from([0.0, 0.0, 0.1])),
        detect_timeout=draw(st.sampled_from([0.0, 0.0, 0.5])),
        partition_rate=draw(st.sampled_from([0.0, 0.5])),
        ckpt_delta=draw(st.booleans()),
    )
    if fields["app"] == "cg" and not fields["placement"].startswith("parity"):
        fields["recovery"] = draw(st.sampled_from(["checkpoint", "reconstruct"]))
    return _perturbed(draw, fields, CAMPAIGN_OUT_OF_RANGE)


def _judged(judge):
    """Run *judge* with ``Runtime.__init__`` forbidden: the ``ValueError``
    it raised (one line), or None when it accepted."""
    entered = AssertionError("a Runtime was built while judging a configuration")
    with mock.patch.object(Runtime, "__init__", side_effect=entered):
        try:
            judge()
        except ValueError as exc:
            assert len(str(exc).splitlines()) == 1, str(exc)
            return exc
    return None


@settings(max_examples=300, deadline=None)
@given(spec=world_specs())
def test_every_world_is_refused_up_front_or_runs(spec):
    if _judged(spec.validate) is not None:
        return
    rt, app, _, executor = spec.build()
    with rt:
        try:
            report = executor.run()
        except DataLossError:
            return
    assert report.iterations_executed >= 0


@settings(max_examples=120, deadline=None)
@given(fields=campaign_fields())
def test_every_campaign_is_refused_up_front_or_runs_a_schedule(fields):
    made = []
    if _judged(lambda: made.append(CampaignConfig(**fields))) is not None:
        return
    config = made[0]
    baseline = failure_free_result(APPS[config.app], config.places, config.iterations)
    outcome = run_schedule(config, 0, schedule_spec(config, 0), baseline)
    assert outcome.status in (
        "clean", "recovered", "violated", "data_loss", "data_loss_accepted",
        "corruption_loss_accepted",
    )


def test_the_campaign_replicas_default_follows_the_placement():
    assert CampaignConfig().spec.replicas == 2
    assert CampaignConfig(placement="parity:2").spec.replicas == 1
    assert CampaignConfig(placement="parity:2", replicas=0).spec.replicas == 0


def test_a_schedule_replaces_only_its_draws():
    config = CampaignConfig(app="linreg", drop_rate=0.1, straggler_max=3.0)
    spec = schedule_spec(config, 4)
    assert replace(
        spec, kills=(), straggler=(), fault_seed=None, mode=config.spec.mode,
        checkpoint_mode=config.spec.checkpoint_mode,
    ) == config.spec
    assert spec.kills and spec.straggler and spec.fault_seed is not None
    assert schedule_spec(config, 4) == spec


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(victim=(2,)), "--victim: not read without --fail-at"),
        (dict(fail_at=(3,), victim=(1, 2)), "--victim given 2 times for 1 --fail-at"),
        (dict(fail_at=(4,)), "--fail-at 4 never fires"),
        (dict(resilient=False, checkpoint_interval=3), "--ckpt-interval: not read"),
        (dict(replicas=-1), "replicas must be >= 0, got -1"),
        (dict(detect_timeout=-1.0), "detect_timeout must be >= 0"),
    ],
)
def test_validate_names_the_offending_flag_or_field(fields, message):
    spec = WorldSpec("linreg", places=4, iterations=4, workload="tiny", **fields)
    with pytest.raises(ValueError, match=message.replace("(", r"\(")):
        spec.validate()
