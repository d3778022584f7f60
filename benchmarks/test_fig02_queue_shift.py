"""Figure 2: Bundler shifts queueing from the in-network bottleneck to the sendbox."""

from repro.testing import BENCH_SCALE, report

from repro.api import RunSpec, aggregate_outcome, find_cell


def _specs():
    return [
        RunSpec(
            "fig02_queue_shift",
            params=dict(
                with_bundler=with_bundler,
                bottleneck_mbps=BENCH_SCALE["bottleneck_mbps"],
                rtt_ms=BENCH_SCALE["rtt_ms"],
                duration_s=BENCH_SCALE["duration_s"],
                num_flows=2,
            ),
        )
        for with_bundler in (False, True)
    ]


def test_fig02_queue_shift(benchmark, bench_sweep):
    outcome = benchmark.pedantic(lambda: bench_sweep(_specs()), rounds=1, iterations=1)
    cells = aggregate_outcome(outcome)
    without = find_cell(cells, with_bundler=False)
    with_b = find_cell(cells, with_bundler=True)
    # The registered metrics are the means from the 5 s mark on, in ms.
    sq_bottleneck = without.mean("mean_bottleneck_delay_ms")
    sq_sendbox = without.mean("mean_sendbox_delay_ms")
    bu_bottleneck = with_b.mean("mean_bottleneck_delay_ms")
    bu_sendbox = with_b.mean("mean_sendbox_delay_ms")
    report(
        "Figure 2 — queue location (mean queueing delay, ms)",
        [
            f"status quo : bottleneck={sq_bottleneck:6.1f}  sendbox={sq_sendbox:6.1f}",
            f"bundler    : bottleneck={bu_bottleneck:6.1f}  sendbox={bu_sendbox:6.1f}",
            "paper: queue builds at the bottleneck without Bundler and at the sendbox with it",
            outcome.summary(),
        ],
    )
    # Without Bundler the queue is in the network; with Bundler it moves to the edge.
    assert sq_bottleneck > sq_sendbox
    assert bu_sendbox > bu_bottleneck
    assert bu_bottleneck < sq_bottleneck / 2.0
