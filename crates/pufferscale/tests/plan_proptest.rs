//! Property tests: rebalancing plans are always *feasible* — no resource
//! is lost or duplicated, every move references real nodes, forced moves
//! are complete, and metrics agree with the resulting placement.
//!
//! Each property runs [`CASES`] cases; case `seed` draws only from
//! `SeededRng::new(seed)`, and a failure names the property and the seed.

use std::collections::{BTreeMap, HashSet};

use mochi_pufferscale::{plan_rebalance, Placement, Resource, Weights};
use mochi_util::SeededRng;

const CASES: u64 = 256;

/// 1..5 source nodes holding 0..20 resources between them; the target is
/// every source but the last (if there are two or more) plus 0..3 new
/// nodes, so it is never empty.
fn case(rng: &mut SeededRng) -> (Placement, Vec<String>, Weights) {
    let sources = rng.range(1, 5);
    let source_names: Vec<String> = (0..sources).map(|i| format!("n{i}")).collect();
    let mut placement = Placement::empty(&source_names);
    for i in 0..rng.range(0, 20) {
        let resource = Resource {
            id: format!("r{i}"),
            load: rng.next_f64() * 100.0,
            size: rng.range_u64(1, 10_000),
        };
        placement.nodes.entry(format!("n{}", i % sources)).or_default().push(resource);
    }
    let keep = if sources > 1 { sources - 1 } else { sources };
    let mut targets: Vec<String> = (0..keep).map(|i| format!("n{i}")).collect();
    targets.extend((0..rng.range(0, 3)).map(|j| format!("new{j}")));
    let mut weight = || rng.next_f64() * 10.0;
    let weights = Weights { load: weight(), data: weight(), time: weight() };
    (placement, targets, weights)
}

#[test]
fn plans_are_feasible() {
    for seed in 0..CASES {
        let (placement, targets, weights) = case(&mut SeededRng::new(seed));
        let at = format!("plans_are_feasible, seed {seed}");
        let plan = plan_rebalance(&placement, &targets, &weights);

        // Conservation: same multiset of resource ids before and after.
        let mut before: Vec<&str> =
            placement.nodes.values().flatten().map(|r| r.id.as_str()).collect();
        let mut after: Vec<&str> =
            plan.result.nodes.values().flatten().map(|r| r.id.as_str()).collect();
        before.sort();
        after.sort();
        assert_eq!(before, after, "{at}");

        // Result only uses target nodes.
        for node in plan.result.nodes.keys() {
            assert!(targets.contains(node), "{at}");
        }

        // Moves reference target destinations and real resources.
        let ids: HashSet<&str> =
            placement.nodes.values().flatten().map(|r| r.id.as_str()).collect();
        for step in &plan.moves {
            assert!(targets.contains(&step.to), "{at}: move to non-target {}", step.to);
            assert!(ids.contains(step.resource.as_str()), "{at}");
        }

        // Every resource on a removed node was moved exactly once off it.
        for (node, resources) in placement.nodes.iter().filter(|(n, _)| !targets.contains(n)) {
            for resource in resources {
                let count = plan
                    .moves
                    .iter()
                    .filter(|m| m.resource == resource.id && m.from == *node)
                    .count();
                assert_eq!(count, 1, "{at}: forced move for {}", resource.id);
            }
        }

        // Metrics consistent with the final placement.
        assert!((plan.metrics.load_imbalance - plan.result.load_imbalance()).abs() < 1e-9, "{at}");
        assert!((plan.metrics.data_imbalance - plan.result.data_imbalance()).abs() < 1e-9, "{at}");
        let total: u64 = plan.moves.iter().map(|m| m.size).sum();
        assert_eq!(plan.metrics.total_bytes_moved, total, "{at}");
        assert_eq!(plan.metrics.moves, plan.moves.len(), "{at}");
    }
}

#[test]
fn replaying_moves_reproduces_result() {
    for seed in 0..CASES {
        let (placement, targets, weights) = case(&mut SeededRng::new(seed));
        let at = format!("replaying_moves_reproduces_result, seed {seed}");
        let plan = plan_rebalance(&placement, &targets, &weights);
        // Replay the moves on a map id→node starting from `placement`.
        let mut location: BTreeMap<&str, &str> = BTreeMap::new();
        for (node, resources) in &placement.nodes {
            for r in resources {
                location.insert(&r.id, node);
            }
        }
        for step in &plan.moves {
            let from = location.insert(&step.resource, &step.to);
            assert_eq!(
                from,
                Some(step.from.as_str()),
                "{at}: move source mismatch for {}",
                step.resource
            );
        }
        for (node, resources) in &plan.result.nodes {
            for r in resources {
                assert_eq!(location.get(r.id.as_str()), Some(&node.as_str()), "{at}");
            }
        }
    }
}
