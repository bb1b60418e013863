//! Conformance suite for the `bs_net::fleet` sharded engine.
//!
//! The fleet's contract, pinned here:
//!
//! - **Jobs determinism** — the full [`FleetRun`] JSON (per-tag records
//!   included) is byte-identical whether the engine runs on 1, 2 or 8
//!   worker threads.
//! - **Satellite regressions** — duplicate `TagProfile` addresses are
//!   rejected with a typed error at both the gateway and (by
//!   construction) the fleet layer, and so are an inventory Q beyond the
//!   4-bit EPC field, a capacitor with no positive, finite capacity, a
//!   segment payload outside `1..=255` bytes, a zero window
//!   and a rate margin that is not finite and positive; geometry or
//!   mobility out of its domain, and a transmit power or ambient
//!   harvest that is not finite (or an ambient harvest below 0), is
//!   rejected before any work;
//!   `max_cycles` truncation surfaces on `GatewayRun::truncated` and, in
//!   the fleet report, on the run and on each truncated tag's record; a message past the 16-bit
//!   sequence space is a typed `GatewayError::MessageTooLong` at any
//!   worker count, where it used to panic a shard.
//! - **Physics sanity** — mobility produces handoffs that respect the
//!   address-space cap, and crowding gateways raises interference
//!   severity enough to cost goodput.

use bs_channel::faults::FaultPlan;
use bs_net::prelude::*;

fn fleet_cfg(gateways: usize, tags_per_gateway: usize, seed: u64) -> FleetConfig {
    FleetConfig::default()
        .with_population(gateways, tags_per_gateway)
        .with_epochs(2)
        .with_faults(FaultPlan::preset("loss", 0.3, seed ^ 0xF1EE).unwrap())
        .with_seed(seed)
}

#[test]
fn fleet_json_is_byte_identical_across_jobs_1_2_8() {
    let cfg = fleet_cfg(16, 10, 21);
    let one = run_fleet(&cfg, 1).unwrap();
    let two = run_fleet(&cfg, 2).unwrap();
    let eight = run_fleet(&cfg, 8).unwrap();
    assert_eq!(one, two);
    assert_eq!(one, eight);
    let json = one.to_json();
    assert_eq!(json, two.to_json());
    assert_eq!(json, eight.to_json());
    assert!(
        json.contains("\"tag_records\": ["),
        "records must be in the compared bytes"
    );
}

#[test]
fn duplicate_addresses_error_at_the_gateway_seam() {
    // Regression (satellite 2): two tags at one address used to be
    // silently mispaired through `find(..)`; now the roster is rejected
    // before any simulated time passes.
    let tags = vec![
        TagProfile::new(9, vec![1, 2, 3]),
        TagProfile::new(10, vec![4, 5, 6]),
        TagProfile::new(9, vec![7, 8, 9]),
    ];
    let err = run_gateway(&tags, &GatewayConfig::default()).unwrap_err();
    assert_eq!(err, GatewayError::DuplicateAddress { address: 9 });
    // The fleet mirrors the gateway contract in its own error type, and
    // guards its address space up front: a nominal roster beyond the
    // u8 address range is rejected with a typed error, not mispaired.
    assert!(matches!(
        run_fleet(
            &FleetConfig::default().with_population(2, MAX_TAGS_PER_GATEWAY + 1),
            1
        )
        .unwrap_err(),
        FleetError::TooManyTagsPerGateway { .. }
    ));
}

#[test]
fn oversize_inventory_q_errors_at_gateway_and_fleet() {
    // Regression: an inventory Q of 64 overflowed the frame-size shift
    // (a panic in debug builds, a silent 1-slot frame in release). Both
    // layers now reject it with a typed error.
    let mut gcfg = GatewayConfig::default();
    gcfg.inventory.initial_q = 64;
    gcfg.inventory.max_q = 64;
    let err = run_gateway(&[TagProfile::new(1, vec![1, 2, 3])], &gcfg).unwrap_err();
    assert_eq!(err, GatewayError::InvalidInventory { max_q: 64 });
    let mut cfg = fleet_cfg(4, 3, 5);
    cfg.gateway = gcfg;
    for jobs in [1, 2] {
        assert_eq!(
            run_fleet(&cfg, jobs).unwrap_err(),
            FleetError::Gateway(GatewayError::InvalidInventory { max_q: 64 })
        );
    }
}

#[test]
fn invalid_capacitor_errors_at_gateway_and_fleet() {
    // Regression: a zero-capacitance supply reached `Capacitor::new`'s
    // assert inside a shard; now the gateway's typed error comes back.
    let mut energy = FleetEnergyConfig::default();
    energy.capacitor.capacitance_uf = 0.0;
    let cfg = fleet_cfg(4, 3, 5).with_energy(energy);
    for jobs in [1, 2] {
        assert_eq!(
            run_fleet(&cfg, jobs).unwrap_err(),
            FleetError::Gateway(GatewayError::InvalidEnergy { address: 1 }),
            "jobs {jobs}"
        );
    }
}

#[test]
fn non_finite_energy_is_rejected_before_any_work() {
    // Regression: a NaN transmit power or ambient harvest returned `Ok`
    // with a digest that only looked valid. A −1 dBm transmitter is weak,
    // not invalid; a −1 µW ambient harvest is invalid.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let (mut tx, mut ambient) = (FleetEnergyConfig::default(), FleetEnergyConfig::default());
        (tx.tx_power_dbm, ambient.ambient_uw) = (v, v);
        let cases = [
            ("energy.tx_power_dbm", tx, !v.is_finite()),
            ("energy.ambient_uw", ambient, true),
        ];
        for (field, energy, rejected) in cases {
            for jobs in [1, 2] {
                let got = run_fleet(&fleet_cfg(4, 3, 5).with_energy(energy), jobs).err();
                let want = rejected.then_some(FleetError::InvalidConfig { field });
                assert_eq!(got, want, "{field} = {v} at jobs {jobs}");
            }
        }
    }
}

#[test]
fn out_of_range_segment_payload_errors_at_the_fleet() {
    // Regression: a zero segment payload hit `segment_message`'s assert
    // inside a worker and came back as `ShardPanicked`.
    let mut cfg = fleet_cfg(4, 3, 5);
    cfg.gateway.transport.seg_payload_bytes = 0;
    for jobs in [1, 2] {
        assert_eq!(
            run_fleet(&cfg, jobs).unwrap_err(),
            FleetError::Gateway(GatewayError::InvalidTransport {
                seg_payload_bytes: 0
            }),
        );
    }
}

#[test]
fn degenerate_scheduler_knobs_error_at_the_fleet() {
    // Regression: a zero window or a NaN rate margin
    // returned `Ok` with a digest that only looked valid, and an FEC
    // group with no data segments was an opaque `ShardPanicked`.
    type Set = fn(&mut GatewayConfig);
    let cases: [(&str, Set); 5] = [
        ("transport.window", |c| c.transport.window = 0),
        ("rate_margin", |c| c.rate_margin = f64::NAN),
        ("rate_margin", |c| c.rate_margin = -1.0),
        ("transport.fec", |c| {
            c.transport.fec = FecConfig {
                group_data: 0,
                group_parity: 2,
            }
        }),
        ("transport.fec", |c| {
            c.transport.fec = FecConfig {
                group_data: 8,
                group_parity: 65,
            }
        }),
    ];
    for (field, set) in cases {
        let mut cfg = fleet_cfg(4, 3, 5);
        set(&mut cfg.gateway);
        for jobs in [1, 2] {
            assert_eq!(
                run_fleet(&cfg, jobs).unwrap_err(),
                FleetError::Gateway(GatewayError::InvalidConfig { field }),
                "{field} at jobs {jobs}"
            );
        }
    }
}

#[test]
fn bad_geometry_is_rejected_before_any_work() {
    // Regression: a zero spacing made the interference-neighbour scan
    // endless; the other values returned a digest that only looked valid.
    type Set = fn(&mut FleetConfig);
    let cases: [(&str, Set); 11] = [
        ("gateway_spacing_m", |c| c.gateway_spacing_m = 0.0),
        ("gateway_spacing_m", |c| c.gateway_spacing_m = f64::INFINITY),
        ("gateway_spacing_m", |c| c.gateway_spacing_m = -30.0),
        ("coverage_radius_m", |c| c.coverage_radius_m = f64::NAN),
        ("coverage_radius_m", |c| c.coverage_radius_m = -5.0),
        ("mobility", |c| c.mobility = f64::NAN),
        ("mobility", |c| c.mobility = 1.5),
        ("move_sigma_m", |c| c.move_sigma_m = f64::INFINITY),
        ("move_sigma_m", |c| c.move_sigma_m = -1.0),
        ("interference_gain", |c| c.interference_gain = -1.0),
        ("interference_gain", |c| c.interference_gain = f64::NAN),
    ];
    for (field, set) in cases {
        let mut cfg = fleet_cfg(4, 3, 5);
        set(&mut cfg);
        for jobs in [1, 2] {
            assert_eq!(
                run_fleet(&cfg, jobs).unwrap_err(),
                FleetError::InvalidConfig { field },
                "{field} at jobs {jobs}"
            );
        }
    }
}

#[test]
fn oversize_message_is_a_typed_gateway_error_at_any_jobs() {
    // Regression: a 1 MiB message needs more segments than the wire can
    // number. It used to panic inside a shard's gateway run, and the
    // fleet could only name the shard (`ShardPanicked { shard: 0 }`).
    // The gateway now rejects the profile with a typed error, which
    // reaches the fleet unchanged, inline and threaded alike. (Worker
    // panic containment itself is pinned by `bs_dsp::par`'s tests.)
    let cfg = FleetConfig {
        message_bytes: 1 << 20,
        epochs: 1,
        ..Default::default()
    };
    for jobs in [1, 2] {
        let err = run_fleet(&cfg, jobs).unwrap_err();
        assert_eq!(
            err,
            FleetError::Gateway(GatewayError::MessageTooLong { address: 1 }),
            "jobs {jobs}"
        );
        assert!(err.to_string().contains("tag 1"), "{err}");
    }
}

#[test]
fn truncation_surfaces_on_the_run_and_per_tag_in_the_fleet() {
    // Regression (satellite 3): a backstop-truncated run used to be
    // indistinguishable from a finished one. Gateway layer:
    let cfg = GatewayConfig {
        max_cycles: 1,
        faults: FaultPlan::preset("loss", 1.0, 5).unwrap(),
        ..GatewayConfig::default()
    };
    let tags: Vec<TagProfile> = (1..=3).map(|a| TagProfile::new(a, vec![a; 300])).collect();
    let run = run_gateway(&tags, &cfg).unwrap();
    assert!(run.truncated, "one cycle cannot move 300 B under loss");
    assert!(!run.all_complete);

    // Fleet layer: the flag surfaces on the run and per tag.
    let fleet = FleetConfig {
        gateway: cfg,
        message_bytes: 300,
        epochs: 1,
        ..fleet_cfg(8, 4, 17)
    };
    let frun = run_fleet(&fleet, 2).unwrap();
    assert!(frun.truncated_gateway_epochs > 0);
    assert!(frun.truncated_gateway_epochs <= 8);
    assert!(frun.tag_records.iter().any(|t| t.truncated_epochs > 0));
    assert!(!frun.all_complete);
}

#[test]
fn clean_fleet_delivers_everything_with_flat_fairness() {
    let cfg = FleetConfig::default()
        .with_population(12, 6)
        .with_epochs(2)
        .with_seed(3);
    let run = run_fleet(&cfg, 2).unwrap();
    assert!(run.all_complete);
    assert_eq!(run.truncated_gateway_epochs, 0);
    assert_eq!(
        run.delivered_bytes,
        (12 * 6 * 2) as u64 * cfg.message_bytes as u64,
        "every tag uploads one fresh message per epoch, exactly"
    );
    assert!(
        run.fairness > 0.99,
        "equal uploads → fairness {}",
        run.fairness
    );
    assert!(run.latency_us_p50 > 0.0);
    assert!(run.latency_us_p99 >= run.latency_us_p90);
    assert!(run.latency_us_p90 >= run.latency_us_p50);
}

#[test]
fn mobility_hands_off_within_the_address_space_cap() {
    let cfg = FleetConfig {
        mobility: 0.8,
        move_sigma_m: 60.0,
        epochs: 3,
        ..fleet_cfg(9, 6, 13)
    };
    let run = run_fleet(&cfg, 2).unwrap();
    assert!(run.handoffs > 0, "hot mobility must produce handoffs");
    let mut loads = vec![0usize; 9];
    for t in &run.tag_records {
        loads[t.gateway as usize] += 1;
    }
    assert!(
        loads.iter().all(|&l| l <= MAX_TAGS_PER_GATEWAY),
        "a gateway overflowed its address space: {loads:?}"
    );
    // Tags that handed off are counted on the records.
    assert_eq!(
        run.handoffs,
        run.tag_records
            .iter()
            .map(|t| t.handoffs as u64)
            .sum::<u64>()
    );
}

#[test]
fn interference_from_crowding_costs_goodput() {
    let loose = FleetConfig {
        interference_gain: 0.6,
        ..fleet_cfg(9, 5, 19)
    };
    let crowded = FleetConfig {
        gateway_spacing_m: loose.gateway_spacing_m / 4.0,
        ..loose.clone()
    };
    let a = run_fleet(&loose, 2).unwrap();
    let b = run_fleet(&crowded, 2).unwrap();
    assert!(
        b.aggregate_goodput_bps < a.aggregate_goodput_bps,
        "crowded {} bps should trail loose {} bps",
        b.aggregate_goodput_bps,
        a.aggregate_goodput_bps
    );
}
