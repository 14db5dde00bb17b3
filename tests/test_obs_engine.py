"""Engine instrumentation: metrics reports, determinism, journals.

The load-bearing invariant: turning the metrics registry on or off
must never change a run's *observable output bytes* — only whether a
``metrics_report`` rides along.  Sweep worker payloads
(:func:`run_scenario_json`) never carry the report at all, so the
cross-backend determinism contract survives instrumentation.
"""

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.journal import read_journal
from repro.scenarios import (
    CadenceError,
    InternetSpec,
    ScenarioSpec,
    result_from_json,
    result_to_json,
    run_scenario,
    spec_to_json,
)
from repro.scenarios.engine import run_scenario_json

TINY = InternetSpec(
    tier1_count=2,
    transit_count=3,
    stub_count=5,
    beacon_count=1,
    link_flaps=2,
    prefix_flaps=1,
    med_churn_events=1,
    community_churn_events=2,
    prepend_change_events=1,
    collector_session_resets=1,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    payload = {
        "name": "obs-tiny",
        "kind": "internet",
        "seed": 5,
        "internet": TINY,
        "collectors": ("update_counts",),
    }
    payload.update(overrides)
    return ScenarioSpec(**payload)


@pytest.fixture(autouse=True)
def metrics_off_afterwards():
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()
    yield
    obs_metrics.set_metrics_enabled(False)
    obs_metrics.reset_metrics()


def stripped_json(result) -> str:
    """The result payload minus the (volatile) metrics report."""
    result.metrics_report = {}
    return result_to_json(result)


class TestMetricsReport:
    def test_disabled_default_has_empty_report(self):
        result = run_scenario(tiny_spec())
        assert result.metrics_report == {}

    def test_enabled_internet_run_reports_phases_and_gauges(self):
        with obs_metrics.enabled_scope():
            result = run_scenario(tiny_spec())
        report = result.metrics_report
        assert report["phases"]["internet.build"] > 0
        assert report["phases"]["internet.run"] > 0
        assert report["phases"]["scenario.analyze"] >= 0
        gauges = report["gauges"]
        assert gauges["sim.events_processed"] > 0
        assert gauges["sim.peak_pending_events"] > 0
        assert gauges["sim.collected_messages"] > 0
        assert gauges["sim.messages_per_event"] > 0
        assert report["counters"]["scenario.observations"] > 0
        # Memo effectiveness rides along, with live hit counts.
        assert report["memo"]["wire.attr_block"]["misses"] >= 0

    def test_enabled_lab_run_reports_lab_phase(self):
        spec = ScenarioSpec(
            name="obs-lab",
            kind="lab",
            seed=1,
            collectors=("lab_matrix",),
        )
        with obs_metrics.enabled_scope():
            result = run_scenario(spec)
        assert result.metrics_report["phases"]["lab.run"] > 0
        assert result.metrics_report["counters"]["lab.experiments"] == 20

    def test_each_run_resets_the_previous_runs_state(self):
        with obs_metrics.enabled_scope():
            first = run_scenario(tiny_spec())
            second = run_scenario(tiny_spec())
        observed = "scenario.observations"
        assert (
            second.metrics_report["counters"][observed]
            == first.metrics_report["counters"][observed]
        )

    def test_instrumentation_does_not_change_output_bytes(self):
        plain = run_scenario(tiny_spec())
        with obs_metrics.enabled_scope():
            instrumented = run_scenario(tiny_spec())
        assert instrumented.metrics_report  # it did measure something
        assert stripped_json(instrumented) == stripped_json(plain)


class TestWorkerPayloads:
    def test_worker_payload_never_carries_metrics_report(self):
        spec_json = spec_to_json(tiny_spec(), indent=None)
        with obs_metrics.enabled_scope():
            payload = run_scenario_json(spec_json)
        assert "metrics_report" not in json.loads(payload)

    def test_worker_payload_identical_enabled_vs_disabled(self):
        spec_json = spec_to_json(tiny_spec(), indent=None)
        disabled = run_scenario_json(spec_json)
        with obs_metrics.enabled_scope():
            enabled = run_scenario_json(spec_json)
        assert enabled == disabled

    def test_worker_journal_records_lifecycle(self, tmp_path):
        journal_path = str(tmp_path / "cell.jsonl")
        spec_json = spec_to_json(tiny_spec(), indent=None)
        run_scenario_json(spec_json, journal_path)
        events = [event["event"] for event in read_journal(journal_path)]
        assert events[0] == "start"
        assert events[-1] == "finish"

    def test_worker_journal_records_failure(self, tmp_path):
        journal_path = str(tmp_path / "cell.jsonl")
        bad = ScenarioSpec(
            name="obs-bad-mrt",
            kind="mrt",
            seed=1,
            collectors=("update_counts",),
        )
        with pytest.raises(Exception):
            run_scenario_json(spec_to_json(bad, indent=None), journal_path)
        events = [event["event"] for event in read_journal(journal_path)]
        assert events == ["start", "fail"]


class TestHeartbeats:
    def test_on_heartbeat_fires_at_cadence(self):
        payloads = []
        run_scenario(
            tiny_spec(),
            heartbeat_every=50,
            on_heartbeat=payloads.append,
        )
        assert payloads
        assert payloads[0]["observations"] == 50
        for payload in payloads:
            assert payload["observations"] % 50 == 0
            assert payload["rate_per_second"] > 0
            assert payload["peak_rss_kb"] > 0

    def test_no_sink_means_no_heartbeat_work(self):
        # Without a journal or callback the pump disables heartbeats
        # outright (heartbeat_every alone has nowhere to deliver).
        result = run_scenario(tiny_spec(), heartbeat_every=50)
        assert result.metrics_report == {}

    @pytest.mark.parametrize("every", [0, -5])
    @pytest.mark.parametrize("hook", ["heartbeat_every", "snapshot_every"])
    def test_cadence_below_one_is_rejected_before_running(
        self, hook, every
    ):
        # A modulo cadence below one either never fires (0) or fires on
        # the wrong beat (-5 fires every 5); both are refused upfront.
        payloads = []
        with pytest.raises(CadenceError, match=hook):
            run_scenario(
                tiny_spec(), on_heartbeat=payloads.append, **{hook: every}
            )
        assert payloads == []


class TestSerializeRoundTrip:
    def test_metrics_report_round_trips(self):
        with obs_metrics.enabled_scope():
            result = run_scenario(tiny_spec())
        clone = result_from_json(result_to_json(result))
        assert clone.metrics_report == result.metrics_report

    def test_report_key_absent_when_empty(self):
        result = run_scenario(tiny_spec())
        payload = json.loads(result_to_json(result))
        assert "metrics_report" not in payload

    def test_old_payload_without_report_loads(self):
        result = run_scenario(tiny_spec())
        payload = json.loads(result_to_json(result))
        payload.pop("metrics_report", None)
        clone = result_from_json(json.dumps(payload))
        assert clone.metrics_report == {}
