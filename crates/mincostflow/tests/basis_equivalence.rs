//! Randomized basis-equivalence battery: warm-basis simplex repair
//! must be **bit-identical in value and cost** to a cold network-simplex
//! solve of the damaged network, across seeds and mutation kinds.
//!
//! The claim under test is the repair ladder's top tier
//! (`RepairTier::WarmBasis`): re-pivoting a retained spanning-tree
//! basis after crash / capacity / price / rate events is not an
//! approximation — it lands on exactly the optimum a from-scratch solve
//! finds, because the slack-arc encoding turns every event into a
//! min-cost circulation whose optimum *is* the cold answer (see
//! `simplex.rs` module docs). Each case therefore asserts, against an
//! independently rebuilt damaged instance:
//!
//! * same flow value (`Ok`/`Err` agreement included),
//! * same total cost, bit for bit, and a consistent
//!   [`RepairOutcome::cost_delta`],
//! * primal feasibility via [`validate::check_flow`] and dual
//!   feasibility of the repaired basis's own potentials via
//!   [`validate::check_certificate`],
//! * the repair really ran on the warm-basis tier.
//!
//! Style mirrors `desim/tests/queue_model.rs`: seeded xorshift
//! instances, an `Op` enum of scripted mutations, and per-case
//! divergence messages carrying the seed for replay.

use mincostflow::validate::{check_certificate, check_flow};
use mincostflow::{Algorithm, EdgeId, FlowNetwork, FlowSolver, NetworkSimplex, RepairTier};

/// Deterministic xorshift64, the workspace's stock test generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One scripted mutation of a solved instance.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Crash-style arc deletions (1–3 edges at once).
    ArcDeletion,
    /// NIC-degradation-style capacity cut on one edge.
    CapacityCut,
    /// Re-pricing of one edge (cost bump or drop).
    CostBump,
    /// Removal of a non-terminal node: every incident edge dies.
    NodeRemoval,
}

const OPS: [Op; 4] = [
    Op::ArcDeletion,
    Op::CapacityCut,
    Op::CostBump,
    Op::NodeRemoval,
];

/// A random connected instance: a source→sink chain guarantees
/// reachability, random extra edges supply the re-routing alternatives
/// a repair needs. Chain costs are kept ≥ 2 so the total cost mass
/// always leaves the super-arc's re-pricing headroom intact (see
/// `SimplexBasis::reprice`), which pins `reprice_edge` to the warm
/// tier in this suite.
struct Instance {
    n: usize,
    edges: Vec<(usize, usize, i64, i64)>,
    target: i64,
}

fn random_instance(rng: &mut Rng) -> Instance {
    let n = 10 + rng.below(11) as usize; // 10..=20 nodes
    let mut edges = Vec::new();
    for v in 0..n - 1 {
        let cap = 1 + rng.below(9) as i64;
        let cost = 2 + rng.below(14) as i64;
        edges.push((v, v + 1, cap, cost));
    }
    let extras = n + rng.below(n as u64) as usize;
    for _ in 0..extras {
        let u = rng.below(n as u64) as usize;
        let v = rng.below(n as u64) as usize;
        if u == v {
            continue;
        }
        let cap = 1 + rng.below(12) as i64;
        let cost = rng.below(16) as i64;
        edges.push((u, v, cap, cost));
    }
    let target = 1 + rng.below(20) as i64;
    Instance { n, edges, target }
}

fn build(inst: &Instance) -> (FlowNetwork, Vec<EdgeId>) {
    let mut net = FlowNetwork::new(inst.n);
    let ids = inst
        .edges
        .iter()
        .map(|&(u, v, cap, cost)| net.add_edge(u, v, cap, cost))
        .collect();
    (net, ids)
}

/// Cold oracle: solve the mutated instance from scratch with network
/// simplex and return `(flow, cost)` regardless of feasibility.
fn cold_solve(inst: &Instance, target: i64) -> (i64, i64) {
    let (mut net, _) = build(inst);
    match NetworkSimplex.solve(&mut net, 0, inst.n - 1, target) {
        Ok(s) => (s.flow, s.cost),
        Err(e) => (e.max_flow, e.cost),
    }
}

#[test]
fn warm_basis_repair_matches_cold_solve_across_mutations() {
    let mut divergences = Vec::new();
    for seed in 0..72u64 {
        let mut rng = Rng(0x9E3779B97F4A7C15 ^ (seed + 1));
        let base = random_instance(&mut rng);
        for op in OPS {
            let case = format!("seed {seed} op {op:?}");
            let (mut net, ids) = build(&base);
            let mut solver = FlowSolver::new(Algorithm::NetworkSimplex);
            let sink = base.n - 1;
            let base_flow;
            let base_cost;
            match solver.solve(&mut net, 0, sink, base.target) {
                Ok(s) => {
                    base_flow = s.flow;
                    base_cost = s.cost;
                }
                Err(e) => {
                    base_flow = e.max_flow;
                    base_cost = e.cost;
                }
            }
            // Mutate the live network through the solver and the shadow
            // instance for the oracle.
            let mut mutated = Instance {
                n: base.n,
                edges: base.edges.clone(),
                target: base.target,
            };
            let out = match op {
                Op::ArcDeletion => {
                    let kills = 1 + rng.below(3) as usize;
                    let mut dead = Vec::new();
                    for _ in 0..kills {
                        let k = rng.below(ids.len() as u64) as usize;
                        if !dead.contains(&ids[k]) {
                            dead.push(ids[k]);
                            mutated.edges[k].2 = 0;
                        }
                    }
                    solver.repair_deletions(&mut net, &dead)
                }
                Op::CapacityCut => {
                    let k = rng.below(ids.len() as u64) as usize;
                    let new_cap = rng.below(mutated.edges[k].2 as u64 + 1) as i64;
                    mutated.edges[k].2 = new_cap;
                    solver.cut_capacity(&mut net, ids[k], new_cap)
                }
                Op::CostBump => {
                    let k = rng.below(ids.len() as u64) as usize;
                    let new_cost = 2 + rng.below(14) as i64;
                    mutated.edges[k].3 = new_cost;
                    solver
                        .reprice_edge(&mut net, ids[k], new_cost)
                        .expect("reprice headroom is guaranteed by instance construction")
                }
                Op::NodeRemoval => {
                    let victim = 1 + rng.below(base.n as u64 - 2) as usize;
                    let mut dead = Vec::new();
                    for (k, &(u, v, _, _)) in base.edges.iter().enumerate() {
                        if u == victim || v == victim {
                            dead.push(ids[k]);
                            mutated.edges[k].2 = 0;
                        }
                    }
                    solver.repair_deletions(&mut net, &dead)
                }
            };
            if out.tier != RepairTier::WarmBasis {
                divergences.push(format!("{case}: repair ran on {:?}", out.tier));
                continue;
            }
            let repaired_flow = base_flow - out.shortfall;
            let repaired_cost = net.total_cost();
            let (want_flow, want_cost) = cold_solve(&mutated, base.target);
            if repaired_flow != want_flow {
                divergences.push(format!("{case}: flow {repaired_flow} vs cold {want_flow}"));
            }
            if repaired_cost != want_cost {
                divergences.push(format!("{case}: cost {repaired_cost} vs cold {want_cost}"));
            }
            if base_cost + out.cost_delta != repaired_cost {
                divergences.push(format!(
                    "{case}: cost_delta {} inconsistent ({base_cost} + it != {repaired_cost})",
                    out.cost_delta
                ));
            }
            let violations = check_flow(&net, 0, sink, repaired_flow);
            if !violations.is_empty() {
                divergences.push(format!("{case}: infeasible repair {violations:?}"));
            }
            let pot = solver
                .certificate_potentials()
                .expect("warm-basis repair retains its certificate");
            if let Err(v) = check_certificate(&net, pot) {
                divergences.push(format!("{case}: dual-infeasible basis {v:?}"));
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

#[test]
fn repeated_mixed_repairs_stay_cold_equivalent() {
    // One retained basis absorbs a whole adaptation history — crashes,
    // cuts, re-pricings, rate changes — and must stay bit-identical to
    // a cold solve of the cumulative state after every single step.
    for seed in 0..24u64 {
        let mut rng = Rng(0xD1B54A32D192ED03 ^ (seed + 1));
        let base = random_instance(&mut rng);
        let (mut net, ids) = build(&base);
        let sink = base.n - 1;
        let mut solver = FlowSolver::new(Algorithm::NetworkSimplex);
        let mut cur_flow = match solver.solve(&mut net, 0, sink, base.target) {
            Ok(s) => s.flow,
            Err(e) => e.max_flow,
        };
        let mut shadow = Instance {
            n: base.n,
            edges: base.edges.clone(),
            target: base.target,
        };
        let mut target = base.target;
        for step in 0..8 {
            let case = format!("seed {seed} step {step}");
            match rng.below(5) {
                0 => {
                    let k = rng.below(ids.len() as u64) as usize;
                    shadow.edges[k].2 = 0;
                    let out = solver.repair_deletions(&mut net, &[ids[k]]);
                    assert_eq!(out.tier, RepairTier::WarmBasis, "{case} (delete)");
                }
                1 => {
                    let k = rng.below(ids.len() as u64) as usize;
                    let new_cap = rng.below(shadow.edges[k].2 as u64 + 1) as i64;
                    shadow.edges[k].2 = new_cap;
                    let out = solver.cut_capacity(&mut net, ids[k], new_cap);
                    assert_eq!(out.tier, RepairTier::WarmBasis, "{case} (cut)");
                }
                2 => {
                    let k = rng.below(ids.len() as u64) as usize;
                    let new_cost = 2 + rng.below(14) as i64;
                    shadow.edges[k].3 = new_cost;
                    let out = solver
                        .reprice_edge(&mut net, ids[k], new_cost)
                        .expect("reprice headroom is guaranteed by instance construction");
                    assert_eq!(out.tier, RepairTier::WarmBasis, "{case} (reprice)");
                }
                3 => {
                    let delta = 1 + rng.below(4) as i64;
                    target += delta;
                    let out = solver.increase_flow(&mut net, 0, sink, delta);
                    assert_eq!(out.tier, RepairTier::WarmBasis, "{case} (increase)");
                }
                _ => {
                    if cur_flow == 0 {
                        continue;
                    }
                    let delta = 1 + rng.below(cur_flow as u64) as i64;
                    target = cur_flow - delta;
                    let out = solver.decrease_flow(&mut net, 0, sink, delta);
                    assert_eq!(out.tier, RepairTier::WarmBasis, "{case} (decrease)");
                    assert_eq!(out.shortfall, 0, "{case}: decrease can never fall short");
                }
            }
            let (want_flow, want_cost) = cold_solve(&shadow, target);
            cur_flow = want_flow;
            assert_eq!(net.total_cost(), want_cost, "{case} diverged in cost");
            assert!(
                check_flow(&net, 0, sink, want_flow).is_empty(),
                "{case} left an infeasible flow"
            );
            let pot = solver.certificate_potentials().expect("basis stays valid");
            check_certificate(&net, pot).unwrap_or_else(|v| panic!("{case}: {v:?}"));
        }
    }
}
