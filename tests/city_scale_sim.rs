//! The city-scale acceptance gate: a seeded scenario over real
//! sharded pipelines hosted as simulator nodes must close its books
//! exactly, recover the flash crowd's shard skew through each node's
//! own control loop, and replay bit-for-bit.
//!
//! The default lane runs the dozen-node city so `cargo test` stays
//! fast. `NETKIT_CITY_SOAK=1` (CI release lane) runs the full
//! thousand-node, million-flow city: every node a two-shard stateful
//! dataplane (conntrack → heavy-hitter guard → media filter) with an
//! autonomous rebalance controller, three seeded traffic phases
//! (diurnal base, flash crowd, elephant/mice wave), and two complete
//! reruns compared fingerprint-for-fingerprint.

use netkit_sim::scenario::{run_city, CityConfig, ScenarioReport};

/// The fingerprints of `CityConfig::small(0xC17E)` and
/// `CityConfig::city(0xC17E)`. Every node flushes its pipeline after each
/// dispatch, so where a caller-run shard's job runs (in the dispatch or
/// in the flush after it) must not move a single delivery.
const SMALL_FINGERPRINT: u64 = 0x2acb_e32e_0b3b_06e7;
const CITY_FINGERPRINT: u64 = 0xbd2e_f940_caa2_357d;

/// The assertions every lane shares — the scenario engine's contract.
fn assert_city(cfg: &CityConfig, report: &ScenarioReport) {
    // Exact conservation: globally and per drop cause.
    assert!(report.conserved(), "books must close: {report:?}");
    assert_eq!(
        report.injected,
        report.delivered + report.link_drops + report.node_drops
    );
    assert!(report.delivered > 0, "a live city delivers");

    // The hot node's own controller noticed the flash crowd and acted.
    assert!(
        report.hot_migrations >= 1,
        "the hot node must migrate autonomously: {report:?}"
    );
    assert!(
        report.skew_recovery() >= 1.5,
        "flash skew must recover ≥ 1.5×: early {} late {} recovery {}",
        report.skew_early,
        report.skew_late,
        report.skew_recovery()
    );

    // Every modelled flow is accounted for in the config's own terms.
    assert_eq!(report.modelled_flows, cfg.modelled_flows());
}

#[test]
fn city_scale_scenario_holds_its_contract() {
    let soak = std::env::var("NETKIT_CITY_SOAK").is_ok_and(|v| v == "1");
    let cfg = if soak {
        CityConfig::city(0xC17E)
    } else {
        CityConfig::small(0xC17E)
    };
    if soak {
        assert!(cfg.nodes >= 1000, "the soak is the full city");
        assert!(
            cfg.modelled_flows() >= 1_000_000,
            "the soak models a million flows, got {}",
            cfg.modelled_flows()
        );
    }

    let a = run_city(&cfg);
    assert_city(&cfg, &a);
    let pinned = if soak {
        CITY_FINGERPRINT
    } else {
        SMALL_FINGERPRINT
    };
    assert_eq!(a.fingerprint, pinned, "the seeded city replays as pinned");

    // Determinism: an identical rerun is bit-for-bit the same city.
    let b = run_city(&cfg);
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same city");
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.link_drops, b.link_drops);
    assert_eq!(a.node_drops, b.node_drops);
    assert_eq!(a.hot_migrations, b.hot_migrations);
}
