//! `mochi-pufferscale` — rebalancing heuristics for elastic services
//! (paper §6, Observation 6; Cheriere et al., CCGRID'20).
//!
//! "Pufferscale does not require any knowledge of the nature of the
//! resources being migrated or how they will be migrated. It simply works
//! out a rebalancing plan and carries it out by calling functions
//! provided via dependency injection." Accordingly:
//!
//! * a [`Resource`] is just an id with a *load* (access rate) and a
//!   *size* (bytes) — Yokan databases, Warabi targets, anything;
//! * [`plan_rebalance`] produces a [`RebalancePlan`] optimizing the
//!   Pufferscale trilemma — **load balance**, **data balance**, and
//!   **rebalancing time** (dominated by the node that receives the most
//!   bytes) — under tunable [`Weights`];
//! * [`execute_plan`] carries the plan out through an injected migration
//!   callback.
//!
//! Experiment E6 sweeps the weights and reports the resulting trade-off
//! frontier, reproducing the paper's qualitative claim that the three
//! objectives trade off against each other.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A migratable resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resource {
    /// Unique identifier (e.g. `"yokan:db3"`).
    pub id: String,
    /// Access load (requests/s or any consistent unit).
    pub load: f64,
    /// Data volume in bytes.
    pub size: u64,
}

/// Current placement: node → resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Node → resources on it. `BTreeMap` for deterministic iteration.
    pub nodes: BTreeMap<String, Vec<Resource>>,
}

impl Placement {
    /// Creates an empty placement over the given nodes.
    pub fn empty(nodes: &[String]) -> Self {
        Self { nodes: nodes.iter().map(|n| (n.clone(), Vec::new())).collect() }
    }

    /// Total load across all nodes.
    pub fn total_load(&self) -> f64 {
        self.nodes.values().flatten().map(|r| r.load).sum()
    }

    /// Total bytes across all nodes.
    pub fn total_size(&self) -> u64 {
        self.nodes.values().flatten().map(|r| r.size).sum()
    }

    /// Per-node load.
    pub fn node_load(&self, node: &str) -> f64 {
        self.nodes.get(node).map(|rs| rs.iter().map(|r| r.load).sum()).unwrap_or(0.0)
    }

    /// Per-node bytes.
    pub fn node_size(&self, node: &str) -> u64 {
        self.nodes.get(node).map(|rs| rs.iter().map(|r| r.size).sum()).unwrap_or(0)
    }

    /// Normalized imbalance of a per-node metric: `max/avg - 1`
    /// (0 = perfectly balanced). Returns 0 for empty/zero systems.
    fn imbalance(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let total: f64 = values.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let avg = total / values.len() as f64;
        let max = values.iter().cloned().fold(0.0, f64::max);
        max / avg - 1.0
    }

    /// Load imbalance (`max/avg - 1`).
    pub fn load_imbalance(&self) -> f64 {
        let values: Vec<f64> = self.nodes.keys().map(|n| self.node_load(n)).collect();
        Self::imbalance(&values)
    }

    /// Data imbalance (`max/avg - 1`).
    pub fn data_imbalance(&self) -> f64 {
        let values: Vec<f64> = self.nodes.keys().map(|n| self.node_size(n) as f64).collect();
        Self::imbalance(&values)
    }

    /// Normalized standard deviation of a per-node metric (0 = balanced).
    /// Smoother than `max/avg`, so greedy single-resource moves always
    /// register progress even when two nodes tie at the maximum.
    fn spread(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let total: f64 = values.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let avg = total / values.len() as f64;
        let var =
            values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / values.len() as f64;
        var.sqrt() / avg
    }

    /// Load spread (normalized std-dev; optimization objective).
    pub fn load_spread(&self) -> f64 {
        let values: Vec<f64> = self.nodes.keys().map(|n| self.node_load(n)).collect();
        Self::spread(&values)
    }

    /// Data spread (normalized std-dev; optimization objective).
    pub fn data_spread(&self) -> f64 {
        let values: Vec<f64> = self.nodes.keys().map(|n| self.node_size(n) as f64).collect();
        Self::spread(&values)
    }

    /// The node that minimizes the weighted load/data burden — the
    /// placement decision for a *new* resource (a provider joining a
    /// routed keyspace lands where it disturbs the balance least).
    /// Metrics are normalized by their totals so `weights` compares
    /// like with like; ties break to the lexicographically first node.
    pub fn least_loaded(&self, weights: &Weights) -> Option<&str> {
        let total_load = self.total_load().max(1.0);
        let total_size = self.total_size().max(1) as f64;
        self.nodes
            .keys()
            .map(|node| {
                let burden = weights.load * (self.node_load(node) / total_load)
                    + weights.data * (self.node_size(node) as f64 / total_size);
                (node, burden)
            })
            .min_by(|(a, ba), (b, bb)| {
                ba.partial_cmp(bb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
            })
            .map(|(node, _)| node.as_str())
    }
}

/// Objective weights: higher = that objective matters more.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Load balance (balance of accesses).
    pub load: f64,
    /// Data balance (balance of stored bytes).
    pub data: f64,
    /// Rebalancing time (bytes moved; max per receiving node).
    pub time: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Self { load: 1.0, data: 1.0, time: 1.0 }
    }
}

/// One migration in a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Move {
    /// Resource to migrate.
    pub resource: String,
    /// Source node.
    pub from: String,
    /// Destination node.
    pub to: String,
    /// Bytes that will move.
    pub size: u64,
}

/// Quality metrics of a plan's resulting placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanMetrics {
    /// `max/avg - 1` of per-node load after the plan.
    pub load_imbalance: f64,
    /// `max/avg - 1` of per-node bytes after the plan.
    pub data_imbalance: f64,
    /// Bytes received by the busiest destination (the paper's model of
    /// rebalancing time under parallel transfers).
    pub max_bytes_into_one_node: u64,
    /// Total bytes moved.
    pub total_bytes_moved: u64,
    /// Number of migrations.
    pub moves: usize,
}

/// A rebalancing plan: ordered moves plus predicted quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalancePlan {
    /// Migrations to perform.
    pub moves: Vec<Move>,
    /// The placement after all moves.
    pub result: Placement,
    /// Predicted metrics.
    pub metrics: PlanMetrics,
}

/// Computes a rebalancing plan taking `current` to the node set
/// `target_nodes` under `weights`.
///
/// Strategy (greedy, after the Pufferscale heuristics):
/// 1. resources on nodes absent from the target *must* move ("homeless");
/// 2. homeless resources are placed, heaviest first, onto the node that
///    minimizes the weighted objective;
/// 3. an improvement pass moves resources off the most burdened node
///    whenever the weighted objective (including the migration-time
///    penalty) improves — with a large `weights.time` this pass stops
///    early, trading balance for less data movement.
pub fn plan_rebalance(
    current: &Placement,
    target_nodes: &[String],
    weights: &Weights,
) -> RebalancePlan {
    let mut result = Placement::empty(target_nodes);
    let mut moves: Vec<Move> = Vec::new();
    let mut incoming: BTreeMap<String, u64> =
        target_nodes.iter().map(|n| (n.clone(), 0u64)).collect();

    // Keep resources already on surviving nodes in place.
    let mut homeless: Vec<(String, Resource)> = Vec::new();
    for (node, resources) in &current.nodes {
        if let Some(kept) = result.nodes.get_mut(node) {
            kept.extend(resources.iter().cloned());
        } else {
            for resource in resources {
                homeless.push((node.clone(), resource.clone()));
            }
        }
    }

    let total_load: f64 = current.total_load().max(f64::MIN_POSITIVE);
    let total_size: f64 = (current.total_size() as f64).max(1.0);
    let n = target_nodes.len() as f64;
    let avg_load = total_load / n;
    let avg_size = total_size / n;

    // Weighted "fullness" of a node if it also took `r`.
    let score = |result: &Placement, incoming: &BTreeMap<String, u64>, node: &str, r: &Resource| {
        let load = (result.node_load(node) + r.load) / avg_load.max(f64::MIN_POSITIVE);
        let data = (result.node_size(node) + r.size) as f64 / avg_size;
        let time = (incoming.get(node).copied().unwrap_or(0) + r.size) as f64 / avg_size;
        weights.load * load + weights.data * data + weights.time * time
    };

    // Place forced moves, largest weighted burden first.
    homeless.sort_by(|a, b| {
        let burden = |r: &Resource| weights.load * r.load / avg_load.max(f64::MIN_POSITIVE)
            + weights.data * r.size as f64 / avg_size;
        burden(&b.1).partial_cmp(&burden(&a.1)).unwrap_or(std::cmp::Ordering::Equal)
    });
    // With no target node there is nowhere to place them: the plan is
    // empty.
    for (from, resource) in homeless {
        let Some(best) = target_nodes.iter().min_by(|a, b| {
            score(&result, &incoming, a, &resource)
                .partial_cmp(&score(&result, &incoming, b, &resource))
                .unwrap_or(std::cmp::Ordering::Equal)
        }) else {
            break;
        };
        *incoming.entry(best.clone()).or_default() += resource.size;
        moves.push(Move {
            resource: resource.id.clone(),
            from,
            to: best.clone(),
            size: resource.size,
        });
        result.nodes.entry(best.clone()).or_default().push(resource);
    }

    // Improvement pass: relieve the most burdened node while the overall
    // weighted objective (spreads + movement penalty) improves. Spreads
    // (normalized std-dev) are used instead of max/avg so single-resource
    // moves register progress even when two nodes tie at the maximum; the
    // time term charges total bytes moved relative to total data.
    let objective = |result: &Placement, extra_moved: f64| {
        weights.load * result.load_spread()
            + weights.data * result.data_spread()
            + weights.time * extra_moved / total_size
    };
    let mut optional_moved: f64 = 0.0;
    let max_iterations = 4 * current.nodes.values().map(Vec::len).sum::<usize>().max(1);
    for _ in 0..max_iterations {
        let current_objective = objective(&result, optional_moved);
        // Most burdened node by weighted fullness.
        let Some(busiest) = target_nodes.iter().max_by(|a, b| {
            let f = |n: &str| {
                weights.load * result.node_load(n) / avg_load.max(f64::MIN_POSITIVE)
                    + weights.data * result.node_size(n) as f64 / avg_size
            };
            f(a).partial_cmp(&f(b)).unwrap_or(std::cmp::Ordering::Equal)
        }).cloned() else {
            break;
        };
        // Try each resource on it against each other node; take the best
        // improving move.
        let mut best: Option<(usize, String, f64)> = None;
        let resources = result.nodes[&busiest].clone();
        for (i, resource) in resources.iter().enumerate() {
            for node in target_nodes {
                if *node == busiest {
                    continue;
                }
                // Tentatively apply.
                let mut trial = result.clone();
                trial.nodes.entry(busiest.clone()).or_default().remove(i);
                trial.nodes.entry(node.clone()).or_default().push(resource.clone());
                let trial_objective =
                    objective(&trial, optional_moved + resource.size as f64);
                if trial_objective < current_objective - 1e-9
                    && best.as_ref().is_none_or(|(_, _, b)| trial_objective < *b)
                {
                    best = Some((i, node.clone(), trial_objective));
                }
            }
        }
        let Some((index, to, _)) = best else { break };
        let resource = result.nodes.entry(busiest.clone()).or_default().remove(index);
        optional_moved += resource.size as f64;
        *incoming.entry(to.clone()).or_default() += resource.size;
        moves.push(Move {
            resource: resource.id.clone(),
            from: busiest,
            to: to.clone(),
            size: resource.size,
        });
        result.nodes.entry(to).or_default().push(resource);
    }

    let metrics = metrics_for(&result, &incoming, &moves);
    RebalancePlan { moves, result, metrics }
}

fn metrics_for(
    result: &Placement,
    incoming: &BTreeMap<String, u64>,
    moves: &[Move],
) -> PlanMetrics {
    PlanMetrics {
        load_imbalance: result.load_imbalance(),
        data_imbalance: result.data_imbalance(),
        max_bytes_into_one_node: incoming.values().copied().max().unwrap_or(0),
        total_bytes_moved: moves.iter().map(|m| m.size).sum(),
        moves: moves.len(),
    }
}

/// Executes a plan through an injected migration function; stops at the
/// first failure, returning the moves performed so far and the error.
pub fn execute_plan(
    plan: &RebalancePlan,
    mut migrate: impl FnMut(&Move) -> Result<(), String>,
) -> Result<usize, (usize, String)> {
    for (i, step) in plan.moves.iter().enumerate() {
        migrate(step).map_err(|e| (i, e))?;
    }
    Ok(plan.moves.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resource(id: &str, load: f64, size: u64) -> Resource {
        Resource { id: id.into(), load, size }
    }

    fn nodes(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn uniform_placement(node_count: usize, per_node: usize) -> Placement {
        let mut placement = Placement::empty(&(0..node_count)
            .map(|i| format!("n{i}"))
            .collect::<Vec<_>>());
        for i in 0..node_count {
            for j in 0..per_node {
                placement
                    .nodes
                    .get_mut(&format!("n{i}"))
                    .unwrap()
                    .push(resource(&format!("r{i}-{j}"), 1.0, 100));
            }
        }
        placement
    }

    fn all_ids(p: &Placement) -> Vec<String> {
        let mut ids: Vec<String> =
            p.nodes.values().flatten().map(|r| r.id.clone()).collect();
        ids.sort();
        ids
    }

    #[test]
    fn least_loaded_picks_the_emptiest_node() {
        let mut p = Placement::empty(&nodes(&["n0", "n1", "n2"]));
        p.nodes.get_mut("n0").unwrap().push(resource("a", 10.0, 1000));
        p.nodes.get_mut("n1").unwrap().push(resource("b", 1.0, 10));
        assert_eq!(p.least_loaded(&Weights::default()), Some("n2"));
        // Empty placement: deterministic lexicographic tie-break.
        let empty = Placement::empty(&nodes(&["b", "a"]));
        assert_eq!(empty.least_loaded(&Weights::default()), Some("a"));
    }

    #[test]
    fn least_loaded_respects_weights() {
        // n0 is load-heavy, n1 is data-heavy: the winner follows the
        // objective the caller weights.
        let mut p = Placement::empty(&nodes(&["n0", "n1"]));
        p.nodes.get_mut("n0").unwrap().push(resource("hot", 100.0, 1));
        p.nodes.get_mut("n1").unwrap().push(resource("big", 1.0, 1_000_000));
        let load_only = Weights { load: 1.0, data: 0.0, time: 0.0 };
        let data_only = Weights { load: 0.0, data: 1.0, time: 0.0 };
        assert_eq!(p.least_loaded(&load_only), Some("n1"));
        assert_eq!(p.least_loaded(&data_only), Some("n0"));
    }

    #[test]
    fn scale_down_moves_everything_off_removed_nodes() {
        let placement = uniform_placement(4, 4);
        let target = nodes(&["n0", "n1"]);
        let plan = plan_rebalance(&placement, &target, &Weights::default());
        // All 8 resources from n2/n3 moved.
        assert!(plan.moves.iter().all(|m| m.from == "n2" || m.from == "n3" || m.from == "n0" || m.from == "n1"));
        let forced: usize =
            plan.moves.iter().filter(|m| m.from == "n2" || m.from == "n3").count();
        assert_eq!(forced, 8);
        // Nothing lost.
        assert_eq!(all_ids(&plan.result), all_ids(&placement));
        assert!(plan.result.nodes.keys().all(|n| n == "n0" || n == "n1"));
    }

    #[test]
    fn scale_up_spreads_data() {
        let placement = uniform_placement(2, 8);
        let target = nodes(&["n0", "n1", "n2", "n3"]);
        let plan = plan_rebalance(&placement, &target, &Weights::default());
        // New nodes got something.
        assert!(plan.result.node_size("n2") > 0);
        assert!(plan.result.node_size("n3") > 0);
        assert!(plan.metrics.load_imbalance < 0.5, "{:?}", plan.metrics);
        assert_eq!(all_ids(&plan.result), all_ids(&placement));
    }

    #[test]
    fn high_time_weight_moves_less_data() {
        let placement = uniform_placement(2, 10);
        let target = nodes(&["n0", "n1", "n2", "n3"]);
        let eager = plan_rebalance(
            &placement,
            &target,
            &Weights { load: 1.0, data: 1.0, time: 0.01 },
        );
        let lazy = plan_rebalance(
            &placement,
            &target,
            &Weights { load: 1.0, data: 1.0, time: 100.0 },
        );
        assert!(
            lazy.metrics.total_bytes_moved <= eager.metrics.total_bytes_moved,
            "lazy={:?} eager={:?}",
            lazy.metrics,
            eager.metrics
        );
        // And correspondingly worse balance (or at best equal).
        assert!(lazy.metrics.load_imbalance >= eager.metrics.load_imbalance - 1e-9);
    }

    #[test]
    fn load_weight_balances_hot_resources() {
        // One hot resource per node pair; load-focused weights should
        // separate the hot ones.
        let mut placement = Placement::empty(&nodes(&["n0", "n1"]));
        placement.nodes.get_mut("n0").unwrap().extend([
            resource("hot1", 100.0, 10),
            resource("hot2", 100.0, 10),
            resource("cold1", 1.0, 10),
        ]);
        placement.nodes.get_mut("n1").unwrap().push(resource("cold2", 1.0, 10));
        let plan = plan_rebalance(
            &placement,
            &nodes(&["n0", "n1"]),
            &Weights { load: 10.0, data: 0.1, time: 0.001 },
        );
        let loads = [plan.result.node_load("n0"), plan.result.node_load("n1")];
        assert!(
            (loads[0] - loads[1]).abs() <= 99.0 + 1e-9,
            "hot resources should split: {loads:?} (moves: {:?})",
            plan.moves
        );
        assert!(plan.metrics.load_imbalance < 0.5, "{:?}", plan.metrics);
    }

    #[test]
    fn empty_target_produces_empty_plan() {
        let placement = uniform_placement(2, 2);
        let plan = plan_rebalance(&placement, &[], &Weights::default());
        assert!(plan.result.nodes.is_empty());
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn noop_when_nothing_to_do() {
        let placement = uniform_placement(3, 2);
        let plan = plan_rebalance(
            &placement,
            &nodes(&["n0", "n1", "n2"]),
            &Weights::default(),
        );
        assert!(plan.moves.is_empty(), "balanced placement needs no moves: {:?}", plan.moves);
        assert_eq!(plan.metrics.total_bytes_moved, 0);
    }

    #[test]
    fn execute_plan_calls_injected_migration() {
        let placement = uniform_placement(2, 2);
        let plan = plan_rebalance(&placement, &nodes(&["n0"]), &Weights::default());
        let mut seen = Vec::new();
        let done = execute_plan(&plan, |m| {
            seen.push(m.resource.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(done, plan.moves.len());
        assert_eq!(seen.len(), plan.moves.len());
    }

    #[test]
    fn execute_plan_stops_on_failure() {
        let placement = uniform_placement(2, 2);
        let plan = plan_rebalance(&placement, &nodes(&["n0"]), &Weights::default());
        assert!(plan.moves.len() >= 2);
        let mut calls = 0;
        let err = execute_plan(&plan, |_| {
            calls += 1;
            if calls == 2 {
                Err("boom".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(calls, 2);
    }

    #[test]
    fn metrics_reflect_final_placement() {
        let placement = uniform_placement(4, 3);
        let plan = plan_rebalance(&placement, &nodes(&["n0", "n1"]), &Weights::default());
        let recomputed_load = plan.result.load_imbalance();
        assert!((plan.metrics.load_imbalance - recomputed_load).abs() < 1e-12);
        let total: u64 = plan.moves.iter().map(|m| m.size).sum();
        assert_eq!(plan.metrics.total_bytes_moved, total);
    }
}
