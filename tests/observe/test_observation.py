"""End-to-end observation tests: a real compile under instrumentation."""

import pytest

from repro.observe import (
    MetricsRegistry,
    NullTracer,
    Observation,
    Tracer,
)
from repro.observe.observation import CountingMemo
from repro.pipeline import pitchfork_compile
from repro.targets import ARM
from repro.workloads import by_name


class TestCountingMemo:
    def test_counts_hits_and_misses(self):
        reg = MetricsRegistry()
        memo = CountingMemo(
            reg.counter("memo", outcome="hit"),
            reg.counter("memo", outcome="miss"),
        )
        assert memo.get("k") is None
        memo["k"] = "v"
        assert memo.get("k") == "v"
        assert memo.get("k") == "v"
        assert reg.counter_value("memo", outcome="hit") == 2
        assert reg.counter_value("memo", outcome="miss") == 1


def _compile_sobel(obs):
    wl = by_name("sobel3x3")
    return pitchfork_compile(
        wl.expr, ARM, var_bounds=wl.var_bounds, trace=obs
    )


class TestInstrumentedCompile:
    def test_spans_cover_the_pipeline(self):
        obs = Observation()
        _compile_sobel(obs)
        names = [s.name for s in obs.tracer.spans]
        assert names[0] == "compile"
        for p in ("canonicalize", "lift", "lower"):
            assert f"pass:{p}" in names
        assert all(s.closed for s in obs.tracer.spans)
        compile_span = obs.tracer.spans[0]
        assert "stats" in compile_span.args
        assert compile_span.args["target"] == "arm-neon"

    def test_rule_counters_and_events(self):
        obs = Observation()
        _compile_sobel(obs)
        fired = {
            (dict(c.labels)["rule"], dict(c.labels)["phase"]): c.value
            for c in obs.metrics.counters("rule_fired")
        }
        assert fired[("arm-uabd", "lower")] >= 1
        assert any(phase == "lift" for _, phase in fired)
        # every firing also produced an instant event
        assert len(obs.tracer.instants) == sum(fired.values())
        hits = obs.metrics.counter_value(
            "match_index", phase="lift", outcome="hit"
        )
        misses = obs.metrics.counter_value(
            "match_index", phase="lift", outcome="miss"
        )
        assert hits > 0
        # the index prunes the vast majority of (rule, node) attempts
        assert misses > hits
        assert any(
            h.count > 0 for h in obs.metrics.histograms("fixpoint_passes")
        )
        assert obs.metrics.counter_value(
            "memo", phase="lift", outcome="hit"
        ) > 0

    def test_provenance_reaches_emitted_instructions(self):
        obs = Observation()
        prog = _compile_sobel(obs)
        assert len(obs.provenance) > 0
        text = prog.explain()
        for line in text.splitlines():
            assert "; " in line
            assert "lift:" in line or "lower:" in line

    def test_explain_requires_observation(self):
        prog = _compile_sobel(None)
        assert prog.observation is None
        with pytest.raises(ValueError):
            prog.explain()

    def test_observed_result_matches_unobserved(self):
        plain = _compile_sobel(None)
        observed = _compile_sobel(Observation())
        assert observed.lowered is plain.lowered
        assert observed.assembly() == plain.assembly()


class TestQuietObservation:
    def test_quiet_skips_events_keeps_metrics(self):
        obs = Observation.quiet()
        assert isinstance(obs.tracer, NullTracer)
        assert not obs.rule_events
        _compile_sobel(obs)
        assert obs.tracer.spans == []
        assert obs.tracer.instants == []
        assert any(c.value for c in obs.metrics.counters("rule_fired"))
        assert len(obs.provenance) > 0

    def test_shared_registry_aggregates(self):
        reg = MetricsRegistry()
        _compile_sobel(Observation.quiet(metrics=reg))
        one = sum(c.value for c in reg.counters("rule_fired"))
        _compile_sobel(Observation.quiet(metrics=reg))
        two = sum(c.value for c in reg.counters("rule_fired"))
        assert two == 2 * one

    def test_rule_events_off_with_live_tracer(self):
        obs = Observation(tracer=Tracer(), rule_events=False)
        _compile_sobel(obs)
        assert obs.tracer.instants == []
        assert obs.tracer.spans  # spans still recorded
