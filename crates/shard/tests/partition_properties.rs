//! Property tests for the rendezvous partitioner and rebalance
//! stability: assignment is a pure function of `(vehicle, shard
//! count)`, growing `N → N + 1` remaps a vanishing fraction of the
//! fleet (and only ever onto the new shard), and a rebalance moves
//! exactly the remapped snapshot set.

use proptest::prelude::*;

use vup_fleetsim::VehicleId;
use vup_shard::{remapped, shard_of, Partitioner};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same `(vehicle, shards)` in, same shard out — across calls,
    /// partitioner instances, and unrelated vehicles.
    #[test]
    fn assignment_is_a_pure_function_of_vehicle_and_shard_count(
        vehicle in 0_u32..5_000_000,
        shards in 1_u32..64,
    ) {
        let first = shard_of(VehicleId(vehicle), shards);
        prop_assert!(first < shards);
        prop_assert_eq!(first, shard_of(VehicleId(vehicle), shards));
        prop_assert_eq!(first, Partitioner::new(shards).shard_of(VehicleId(vehicle)));
        // Neighbouring ids are independent draws: their assignment
        // cannot perturb this vehicle's.
        let _ = shard_of(VehicleId(vehicle.wrapping_add(1)), shards);
        prop_assert_eq!(first, shard_of(VehicleId(vehicle), shards));
    }

    /// Growing `N → N + 1` remaps at most ~`K / N` vehicles (we allow
    /// 2× the expectation of K/(N+1) as slack), and every mover lands
    /// on the new shard — the consistent-hashing minimum.
    #[test]
    fn growing_by_one_shard_remaps_at_most_about_k_over_n(
        n in 1_u32..12,
        vehicles in 2_000_u32..6_000,
    ) {
        let movers = remapped(vehicles, n, n + 1);
        for &(_, _, new) in &movers {
            prop_assert_eq!(new, n, "movers go only to the new shard");
        }
        let expectation = vehicles as f64 / (n + 1) as f64;
        prop_assert!(
            (movers.len() as f64) < 2.0 * expectation + 32.0,
            "{} of {} vehicles moved for {}→{} shards (expected ≈{:.0})",
            movers.len(), vehicles, n, n + 1, expectation
        );
        // Non-movers really kept their shard.
        let moved: std::collections::HashSet<u32> =
            movers.iter().map(|(v, _, _)| v.0).collect();
        for id in 0..vehicles {
            if !moved.contains(&id) {
                prop_assert_eq!(
                    shard_of(VehicleId(id), n),
                    shard_of(VehicleId(id), n + 1)
                );
            }
        }
    }
}

/// Rebalance moves exactly the remapped set: disk state after
/// `rebalance(from → to)` owns each vehicle's snapshot on its new
/// shard, and untouched vehicles never leave their directory. One
/// seeded end-to-end case (proptest shrinks poorly over filesystem
/// state, and the partition side is already covered above).
#[test]
fn rebalance_moves_exactly_the_remapped_snapshot_set() {
    use vup_core::{ModelSpec, PipelineConfig, VehicleView};
    use vup_ml::baseline::BaselineSpec;
    use vup_obs::SpanCtx;
    use vup_serve::{parse_snapshot_name, DiskBackend, ModelStore, StorageBackend};
    use vup_shard::{rebalance, shard_dir};

    let root =
        std::env::temp_dir().join(format!("vup-shard-prop-rebalance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let vehicles = 32u32;
    let (from, to) = (3u32, 4u32);

    let fleet =
        vup_fleetsim::Fleet::generate(vup_fleetsim::FleetConfig::small(vehicles as usize, 7));
    let config = PipelineConfig {
        model: ModelSpec::Baseline(BaselineSpec::LastValue),
        ..PipelineConfig::default()
    };
    for shard in 0..from {
        let store = ModelStore::open(shard_dir(&root, shard)).unwrap();
        for id in 0..vehicles {
            if shard_of(VehicleId(id), from) != shard {
                continue;
            }
            let view = VehicleView::build(&fleet, VehicleId(id), config.scenario);
            let predictor = vup_core::FittedPredictor::fit(&view, &config, 0, view.len())
                .expect("baseline fit cannot fail");
            store.insert(
                VehicleId(id),
                &config,
                predictor,
                view.len(),
                &SpanCtx::disabled(),
            );
        }
    }

    let report = rebalance(&DiskBackend, &root, from, to).unwrap();
    let mut moved: Vec<(VehicleId, u32, u32)> = report
        .moved
        .iter()
        .map(|m| (m.vehicle, m.from, m.to))
        .collect();
    moved.sort_by_key(|(v, _, _)| *v);
    assert_eq!(moved, remapped(vehicles, from, to), "moved == remapped");
    assert!(report.skipped_corrupt.is_empty());

    // Post-state: every shard dir owns exactly its `to`-partition
    // vehicles, and every vehicle's snapshot exists exactly once.
    let mut seen = std::collections::HashSet::new();
    for shard in 0..to {
        let files = match DiskBackend.list(&shard_dir(&root, shard)) {
            Ok(files) => files,
            Err(_) => continue,
        };
        for path in files {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some((vehicle, _)) = parse_snapshot_name(name) else {
                continue;
            };
            assert_eq!(shard_of(vehicle, to), shard, "{name} on wrong shard");
            assert!(seen.insert(vehicle), "{name} duplicated across shards");
        }
    }
    assert_eq!(seen.len(), vehicles as usize, "no snapshot lost");
    let _ = std::fs::remove_dir_all(&root);
}
