"""Tests for TraceReplayWorkload and its §7.1 request-load constructor.

The load-bearing property here is **replay equivalence**: the §7.1 request
load is a live-generated trace replayed by the same engine as a recorded
one, and the generate→write→read→replay path must reproduce the direct
path exactly — same flows, same timings, same completions.  That is what
makes synthetic and recorded traffic one code path instead of two.
"""

import pytest

from repro.net.simulator import Simulator
from repro.net.topology import build_site_to_site
from repro.traffic.events import TraceEvent, TraceFormatError
from repro.traffic.format import write_trace
from repro.traffic.generators import poisson_flow_events
from repro.traffic.replay import TraceReplayWorkload
from repro.traffic.spec import open_trace
from repro.util.rng import make_rng
from repro.workload.flowsize import internet_core_cdf


def _topo(num_cross_pairs=0):
    sim = Simulator()
    topo = build_site_to_site(
        sim, bottleneck_mbps=24, rtt_ms=20, num_servers=2,
        num_cross_pairs=num_cross_pairs,
    )
    return sim, topo


def _record_tuples(workload):
    return [
        (r.flow_id, r.size_bytes, r.start_time, r.completion_time, r.traffic_class)
        for r in workload.records(include_incomplete=True)
    ]


class _IssueLog(TraceReplayWorkload):
    """Notes each flow's sending host as it is issued: a closed flow is a
    record, which does not say where the flow ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued_from = []

    def _issue_event(self, event):
        super()._issue_event(event)
        if event.kind == "flow":
            self.issued_from.append(self.flows[-1].sender.host.name)


class TestReplayBasics:
    def test_flow_events_become_completed_flows(self):
        sim, topo = _topo()
        events = [
            TraceEvent(time_s=0.1 * i, kind="flow", size_bytes=5_000, src=i, dst=0)
            for i in range(10)
        ]
        workload = _IssueLog(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events
        ).start()
        sim.run(until=5.0)
        assert workload.flows_issued == 10
        records = workload.records()
        assert len(records) == 10
        assert all(r.completed for r in records)
        # Every flow has closed: the workload holds ten records, no flow.
        assert workload.flows == []
        # src indices map modulo the server pool.
        assert workload.issued_from == ["server0", "server1"] * 5

    def test_stream_events_drive_paced_udp(self):
        sim, topo = _topo(num_cross_pairs=1)
        events = [
            TraceEvent(time_s=0.1, kind="stream", rate_bps=2e6, duration_s=1.0,
                       group="cross"),
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients,
            events=events,
            cross_senders=topo.cross_senders,
            cross_receivers=topo.cross_receivers,
        ).start()
        sim.run(until=2.0)
        assert workload.streams_started == 1
        stream = workload.streams[0]
        assert stream.bytes_sent == pytest.approx(2e6 / 8.0, rel=0.05)

    def test_cross_events_without_pools_fail_loudly(self):
        sim, topo = _topo()
        events = [TraceEvent(time_s=0.1, kind="stream", rate_bps=1e6, duration_s=0.5,
                             group="cross")]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events
        ).start()
        with pytest.raises(ValueError, match="cross"):
            sim.run(until=1.0)

    def test_out_of_order_trace_rejected(self):
        sim, topo = _topo()
        events = [
            TraceEvent(time_s=1.0, kind="flow", size_bytes=100),
            TraceEvent(time_s=0.5, kind="flow", size_bytes=100),
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events
        ).start()
        with pytest.raises(TraceFormatError, match="time-ordered"):
            sim.run(until=2.0)

    def test_stop_halts_replay(self):
        sim, topo = _topo()
        events = [
            TraceEvent(time_s=0.1 * i, kind="flow", size_bytes=1_000) for i in range(20)
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=events
        ).start()
        sim.at(0.55, workload.stop)
        sim.run(until=5.0)
        assert workload.flows_issued <= 6

    def test_classify_overrides_traffic_class(self):
        sim, topo = _topo()
        events = [
            TraceEvent(time_s=0.1, kind="flow", size_bytes=1_000),
            TraceEvent(time_s=0.2, kind="flow", size_bytes=500_000),
        ]
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients,
            events=events,
            classify=lambda size: 0 if size <= 100_000 else 1,
        ).start()
        sim.run(until=3.0)
        records = workload.records(include_incomplete=True)
        assert sorted(r.traffic_class for r in records) == [0, 1]

    def test_start_twice_rejected(self):
        sim, topo = _topo()
        workload = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients, events=[]
        ).start()
        with pytest.raises(RuntimeError):
            workload.start()


class TestGenerateThenReplayEquivalence:
    """The §7.1 workload and its trace round trip are the same simulation."""

    OFFERED = 6e6
    DURATION = 3.0

    def _direct(self):
        sim, topo = _topo()
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=self.OFFERED, rng=make_rng(42), duration_s=self.DURATION,
        ).start()
        sim.run(until=self.DURATION + 2.0)
        return workload

    def _events(self):
        sizes = internet_core_cdf()
        rate = self.OFFERED / (sizes.mean() * 8.0)
        return poisson_flow_events(
            make_rng(42), rate_per_s=rate, sizes=sizes,
            horizon_s=self.DURATION, num_src=2, num_dst=1,
        )

    def test_constructor_returns_the_replay_engine_itself(self):
        # No wrapper type: callers hold the TraceReplayWorkload and read
        # flows_issued / records() / flows (the open ones) off the real object.
        sim, topo = _topo()
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=self.OFFERED, rng=make_rng(42), duration_s=self.DURATION,
        )
        assert type(workload) is TraceReplayWorkload
        assert not hasattr(workload, "requests_issued")

    def test_file_roundtrip_replay_matches_direct_run(self, tmp_path):
        direct = self._direct()

        path = tmp_path / "req.jsonl.gz"
        write_trace(str(path), self._events())

        sim, topo = _topo()
        replay = TraceReplayWorkload(
            sim, topo.packet_factory, topo.servers, topo.clients,
            events=open_trace(str(path)),
        ).start()
        sim.run(until=self.DURATION + 2.0)

        assert _record_tuples(replay) == _record_tuples(direct)

    def test_request_workload_draw_order_matches_generator(self):
        # The workload's internal stream and the standalone generator are
        # the same function of the same rng — identical event sequences.
        direct = self._direct()
        expected = list(self._events())
        assert direct.flows_issued == len(expected)
        issued = direct.records(include_incomplete=True)
        for record, event in zip(issued, expected, strict=True):
            assert record.size_bytes == event.size_bytes
            assert record.start_time == pytest.approx(event.time_s, abs=1e-12)

    def test_nonzero_start_offsets_whole_trace(self):
        sim, topo = _topo()
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=self.OFFERED, rng=make_rng(7), duration_s=1.0,
        ).start(at=2.0)
        sim.run(until=4.5)
        starts = [r.start_time for r in workload.records(include_incomplete=True)]
        assert starts
        assert min(starts) >= 2.0
        assert max(starts) <= 3.0

    def test_max_requests_bound_preserved(self):
        sim, topo = _topo()
        workload = TraceReplayWorkload.poisson_requests(
            sim, topo.packet_factory, topo.servers, topo.clients,
            offered_load_bps=self.OFFERED, rng=make_rng(1),
            duration_s=10.0, max_requests=25,
        ).start()
        sim.run(until=12.0)
        assert workload.flows_issued == 25
