"""Hot-path counters for the simulation core.

:class:`SimStats` is the struct every :class:`~repro.net.simulator.Simulator`
owns: plain int/float fields behind ``__slots__``, incremented inline by the
event loop (one integer add per scheduled/fired event — cheap enough to be
always on).  Everything else — per-qdisc-class enqueue/dequeue/drop counts,
per-link bytes drained, transport retransmits, bundler epochs — is *not*
counted on the hot path at all: links, flows, and sendboxes already keep
their own counters for the paper's metrics, so the observability layer
simply registers those components with their simulator and folds their
counters into a snapshot dict **after** the run.  Zero added work per
packet; one dict walk per run.

:func:`simulator_counters` produces the per-simulator snapshot and
:func:`merge_counters` folds several simulators' snapshots into one (a
scenario may build more than one simulation — e.g. a baseline and a
bundler run inside the same cell).
"""

from __future__ import annotations

from typing import Any, Dict, List


class SimStats:
    """Event-loop counters owned by one simulator.

    ``events_scheduled`` counts events scheduled (heap pushes, plus deliveries a
    link runs in place of pushing them), ``events_processed`` counts
    callbacks actually fired (cancelled tokens are popped but skipped and
    show up in ``events_cancelled``; work a batched datapath inlines
    instead of queueing is counted here too, so counts stay comparable
    across scheduler refactors), ``events_pending`` is the exact number of
    live events still queued when the last :meth:`Simulator.run` returned,
    ``run_wall_s`` is wall-clock time spent inside :meth:`Simulator.run`,
    and ``sim_time_s`` is the final simulated clock — together they give
    events/sec and the sim-time speedup every run reports.
    """

    __slots__ = (
        "events_scheduled",
        "events_processed",
        "events_cancelled",
        "events_pending",
        "run_calls",
        "run_wall_s",
        "sim_time_s",
    )

    def __init__(self) -> None:
        self.events_scheduled = 0
        self.events_processed = 0
        self.events_cancelled = 0
        self.events_pending = 0
        self.run_calls = 0
        self.run_wall_s = 0.0
        self.sim_time_s = 0.0

    @property
    def events_per_sec(self) -> float:
        """Callbacks fired per wall second inside the event loop."""
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.events_processed / self.run_wall_s

    @property
    def speedup(self) -> float:
        """Simulated seconds per wall second (how far ahead of real time)."""
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.sim_time_s / self.run_wall_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "events_cancelled": self.events_cancelled,
            "events_pending": self.events_pending,
            "run_calls": self.run_calls,
            "run_wall_s": round(self.run_wall_s, 6),
            "sim_time_s": round(self.sim_time_s, 9),
        }


class ClosedFlowTotals:
    """What closed TCP senders counted, kept after the senders are gone.

    A completed :class:`~repro.transport.tcp.TcpSender` leaves the
    simulator's flow registry (``Simulator.close_flow``) and is freed; its
    counters are added here first so :func:`simulator_counters` reports
    the same totals as if every sender had been kept.
    """

    __slots__ = ("senders", "packets_sent", "retransmissions", "timeouts")

    def __init__(self) -> None:
        self.senders = 0
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0

    def fold(self, sender) -> None:
        self.senders += 1
        self.packets_sent += sender.packets_sent
        self.retransmissions += sender.retransmissions
        self.timeouts += sender.timeouts


def qdisc_class_counters(links) -> Dict[str, Dict[str, int]]:
    """Enqueue/dequeue/drop totals grouped by qdisc class across ``links``.

    Qdiscs are discovered from the links *at snapshot time* (not at
    construction) because control planes swap a link's qdisc after the
    link exists — the Bundler sendbox replaces the egress FIFO with its
    token bucket, which itself wraps the scheduling policy.  Nested
    disciplines come from :meth:`repro.qdisc.base.Qdisc.walk`, the same
    chain the probe layer samples backlog from.
    """
    qdiscs: List[Any] = []
    for link in links:
        qdisc = getattr(link, "qdisc", None)
        if qdisc is not None:
            qdiscs.extend(qdisc.walk())
    grouped: Dict[str, Dict[str, int]] = {}
    for qdisc in qdiscs:
        name = type(qdisc).__name__
        bucket = grouped.get(name)
        if bucket is None:
            bucket = grouped[name] = {
                "instances": 0,
                "enqueued": 0,
                "dequeued": 0,
                "dropped": 0,
            }
        bucket["instances"] += 1
        bucket["enqueued"] += getattr(qdisc, "enqueued_packets", 0)
        bucket["dequeued"] += getattr(qdisc, "dequeued_packets", 0)
        bucket["dropped"] += getattr(qdisc, "dropped_packets", 0)
    return grouped


def simulator_counters(sim) -> Dict[str, Any]:
    """One simulator's full counter snapshot (JSON-serializable).

    Reads the simulator's :class:`SimStats` plus the counters of every
    component registered via ``observe_link`` / ``observe_flow`` /
    ``observe_bundle`` — all passive reads, nothing on the hot path.  The
    ``transports`` entry totals closed and open flows alike: closed TCP
    senders were folded into ``sim.closed_flows`` as they left the registry.
    """
    links = sim.observed_links
    flows = sim.open_flows
    closed = sim.closed_flows
    bundles = sim.observed_bundles
    counters: Dict[str, Any] = dict(sim.stats.as_dict())
    counters["qdiscs"] = qdisc_class_counters(links)
    counters["links"] = {
        "count": len(links),
        "bytes_sent": sum(link.bytes_sent for link in links),
        "packets_sent": sum(link.packets_sent for link in links),
        "packets_dropped": sum(link.packets_dropped for link in links),
    }
    tcp = [f for f in flows if hasattr(f, "retransmissions")]
    udp = [f for f in flows if not hasattr(f, "retransmissions")]
    counters["transports"] = {
        "tcp_senders": closed.senders + len(tcp),
        "tcp_packets_sent": closed.packets_sent + sum(f.packets_sent for f in tcp),
        "retransmits": closed.retransmissions + sum(f.retransmissions for f in tcp),
        "timeouts": closed.timeouts + sum(f.timeouts for f in tcp),
        "udp_streams": len(udp),
        "udp_packets_sent": sum(getattr(f, "packets_sent", 0) for f in udp),
    }
    counters["bundler"] = {
        "sendboxes": len(bundles),
        "bundles": sum(len(box.bundles) for box in bundles),
        "epoch_updates": sum(
            state.epoch_updates_sent
            for box in bundles
            for state in box.bundles.values()
        ),
    }
    return counters


def merge_counters(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several simulators' snapshots into one run-level snapshot.

    Numeric leaves sum; nested dicts merge recursively.  Derived ratios
    (events/sec, speedup) are recomputed by the caller from the summed
    fields, never summed themselves.
    """

    def fold(target: Dict[str, Any], source: Dict[str, Any]) -> None:
        for key, value in source.items():
            if isinstance(value, dict):
                fold(target.setdefault(key, {}), value)
            else:
                target[key] = target.get(key, 0) + value

    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        fold(merged, snapshot)
    # Re-round the float fields the fold may have accumulated noisily.
    if "run_wall_s" in merged:
        merged["run_wall_s"] = round(merged["run_wall_s"], 6)
    if "sim_time_s" in merged:
        merged["sim_time_s"] = round(merged["sim_time_s"], 9)
    return merged
