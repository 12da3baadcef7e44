//! `update-stream`: global updates on the simulator.
//!
//! A ring of peers whose coordination rules cycle through GAV copy, GAV
//! join and GLAV existential rules. Every edge keeps the key column in
//! place and only the existential rule invents a value (in the second
//! column, which no rule carries back into the key), so the rule set is
//! weakly acyclic and every update terminates. Each episode builds a fresh
//! network, runs one cold global update to the fixpoint, then runs rounds:
//! a small batch of fresh tuples inserted at seeded peers, then a global
//! update from a seeded origin. Closed loop, one client.

use crate::layers::{
    counting_tracer, counts, probe_relational, received, selection_query, sent, update_problems,
    TraceCounts,
};
use crate::pass::{episode_rng, ratio, Budget, Pass};
use codb_core::{Body, CoDbNetwork, CoordinationRule, NetworkConfig, NodeConfig, NodeId};
use codb_net::SimConfig;
use codb_relational::{parse_rule, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Peers on the ring.
const NODES: usize = 8;
/// Seed tuples in every peer's main relation.
const TUPLES_PER_NODE: usize = 1000;
/// Values of the join column; every peer's join relation covers all of them.
const JOIN_DOMAIN: i64 = 64;
/// Most fresh tuples one round inserts.
const MAX_BATCH: usize = 8;
/// Rounds after each cold fixpoint.
const ROUNDS_PER_EPISODE: usize = 8;
/// Fresh keys start here, far above the seed keys (`< 2^30`).
const FRESH_BASE: i64 = 1 << 40;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Style {
    Copy,
    Join,
    Glav,
}

/// The rule style of ring edge `i` (peer `i` to peer `i + 1`).
fn style(edge: usize) -> Style {
    [Style::Copy, Style::Join, Style::Glav][edge % 3]
}

fn main_rel(i: usize) -> String {
    format!("r{i}")
}

/// A generated network plus what the checks need to know about it.
struct Generated {
    config: NetworkConfig,
    /// Per peer: the join relation as `Y -> [Z]`.
    join: Vec<BTreeMap<i64, Vec<i64>>>,
}

fn generate(rng: &mut SmallRng) -> Generated {
    let mut nodes = Vec::with_capacity(NODES);
    let mut join = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let (r, s) = (main_rel(i), format!("s{i}"));
        let schema = DatabaseSchema::new()
            .with(RelationSchema::with_types(&r, &[ValueType::Int, ValueType::Int]))
            .with(RelationSchema::with_types(&s, &[ValueType::Int, ValueType::Int]));
        let mut data = Vec::with_capacity(TUPLES_PER_NODE + JOIN_DOMAIN as usize);
        for _ in 0..TUPLES_PER_NODE {
            let t = [rng.gen_range(0..1 << 30), rng.gen_range(0..JOIN_DOMAIN)];
            data.push((r.clone(), Tuple::new(t.map(Value::Int).to_vec())));
        }
        let mut js: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for y in 0..JOIN_DOMAIN {
            let z = rng.gen_range(0..1 << 20);
            js.entry(y).or_default().push(z);
            data.push((s.clone(), Tuple::new(vec![Value::Int(y), Value::Int(z)])));
        }
        join.push(js);
        nodes.push(NodeConfig { id: NodeId(i as u64), name: format!("p{i}"), schema, data });
    }
    let rules = (0..NODES)
        .map(|i| {
            let (src, tgt) = (i, (i + 1) % NODES);
            let text = match style(i) {
                Style::Copy => format!("rule e{i}: r{tgt}(X, Y) <- r{src}(X, Y)."),
                Style::Join => format!("rule e{i}: r{tgt}(X, Z) <- r{src}(X, Y), s{src}(Y, Z)."),
                Style::Glav => format!("rule e{i}: r{tgt}(X, E) <- r{src}(X, Y)."),
            };
            CoordinationRule {
                rule: parse_rule(&text).expect("generated rule text parses"),
                source: NodeId(src as u64),
                target: NodeId(tgt as u64),
            }
        })
        .collect();
    Generated { config: NetworkConfig { nodes, rules, version: 0 }, join }
}

/// Second-column values a key holds at one peer: integers, and whether
/// any marked null is among them (nulls are compared up to renaming).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Held {
    ints: BTreeSet<i64>,
    null: bool,
}

impl Held {
    fn is_empty(&self) -> bool {
        self.ints.is_empty() && !self.null
    }

    /// Adds `other`; true when anything was new.
    fn absorb(&mut self, other: Held) -> bool {
        let before = (self.ints.len(), self.null);
        self.ints.extend(other.ints);
        self.null |= other.null;
        before != (self.ints.len(), self.null)
    }
}

/// What every peer must hold for a fresh key inserted with value `y` at
/// peer `at`, by propagating it along the ring to a fixpoint.
fn implied(at: usize, y: i64, join: &[BTreeMap<i64, Vec<i64>>]) -> Vec<Held> {
    let mut held = vec![Held::default(); NODES];
    held[at].ints.insert(y);
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..NODES {
            let from = &held[i];
            let next = match style(i) {
                Style::Copy => from.clone(),
                Style::Join => Held {
                    ints: from
                        .ints
                        .iter()
                        .flat_map(|y| join[i].get(y))
                        .flatten()
                        .copied()
                        .collect(),
                    null: false,
                },
                Style::Glav => Held { ints: BTreeSet::new(), null: !from.is_empty() },
            };
            changed |= held[(i + 1) % NODES].absorb(next);
        }
    }
    held
}

/// What every peer holds for the keys in `keys`.
fn held(net: &CoDbNetwork, keys: &BTreeSet<i64>) -> Vec<BTreeMap<i64, Held>> {
    (0..NODES)
        .map(|i| {
            let mut out: BTreeMap<i64, Held> = BTreeMap::new();
            let rel = net.node(NodeId(i as u64)).ldb().get(&main_rel(i)).expect("schema relation");
            for t in rel.iter() {
                let Some(Value::Int(k)) = t.get(0) else { continue };
                if keys.contains(k) {
                    let h = out.entry(*k).or_default();
                    match t.get(1) {
                        Some(Value::Int(v)) => {
                            h.ints.insert(*v);
                        }
                        _ => h.null = true,
                    }
                }
            }
            out
        })
        .collect()
}

/// Runs the workload; `traced` attaches a counting tracer after each build
/// and fills the per-layer metrics.
pub fn pass(seed: u64, budget: &Budget, traced: bool) -> Pass {
    let mut p = Pass::default();
    let mut delta_share = Vec::new();
    let (mut firings, mut added, mut data_msgs, mut longest, mut sim_ms) = (0, 0, 0, 0, 0.0);
    let (mut acks, mut retransmits) = (0, 0);
    let mut trace = TraceCounts::default();
    let mut rejected = 0;
    let mut last = None;
    let mut episode = 0;
    while budget.episode(episode) {
        let mut rng = episode_rng(seed, episode);
        let gen = generate(&mut rng);
        let t = p.start();
        let mut net = CoDbNetwork::build(gen.config.clone(), SimConfig::default())
            .expect("generated configuration is valid");
        p.setup(t.elapsed().as_secs_f64(), 0.0);
        let sink = traced.then(|| {
            let (tracer, sink) = counting_tracer();
            net.attach_tracer(&tracer);
            sink
        });

        let origin = NodeId(rng.gen_range(0..NODES) as u64);
        let t = p.start();
        let cold = net.run_update(origin);
        p.cold(t.elapsed().as_secs_f64() * 1e3);
        p.fingerprint.extend([cold.messages, cold.bytes]);
        let problems = update_problems(&net, &cold);
        p.check(|| format!("episode {episode} cold update"), problems);

        let (acks0, retransmits0) = (sent(&net, "ack"), sent(&net, "retransmit"));
        let mut next_key = FRESH_BASE;
        let mut rounds = 0;
        while budget.op(episode, rounds, ROUNDS_PER_EPISODE) {
            let batch: Vec<(usize, i64, i64)> = (0..rng.gen_range(1..MAX_BATCH + 1))
                .map(|_| {
                    next_key += 1;
                    (rng.gen_range(0..NODES), next_key, rng.gen_range(0..JOIN_DOMAIN))
                })
                .collect();
            let origin = NodeId(rng.gen_range(0..NODES) as u64);
            delta_share.push(batch.len() as f64 / net.total_tuples() as f64);
            let before = (net.sim().stats().sent, sink.as_ref().map(|s| counts(s)));

            let t = p.start();
            for &(at, x, y) in &batch {
                let tuple = Tuple::new(vec![Value::Int(x), Value::Int(y)]);
                net.run_control(
                    NodeId(at as u64),
                    Body::IngestLocal { relation: main_rel(at), tuple },
                );
            }
            let out = net.run_update(origin);
            p.op(t.elapsed().as_secs_f64() * 1e3, 0.0);

            p.op_kb.push(out.bytes as f64 / 1024.0);
            p.op_msgs.push(out.messages as f64);
            p.fingerprint.extend([out.messages, out.bytes]);
            let mut problems = update_problems(&net, &out);
            let keys = batch.iter().map(|&(_, x, _)| x).collect();
            let actual = held(&net, &keys);
            for &(at, x, y) in &batch {
                for (i, want) in implied(at, y, &gen.join).into_iter().enumerate() {
                    let got = actual[i].get(&x).cloned().unwrap_or_default();
                    if got != want {
                        problems
                            .push(format!("key {x} at peer {i}: {got:?}, rules imply {want:?}"));
                    }
                }
            }
            if let (Some(sink), Some(c0)) = (&sink, before.1) {
                let c = counts(sink).since(&c0);
                let stats_sent = net.sim().stats().sent - before.0;
                if c.sends != stats_sent {
                    problems.push(format!("trace saw {} sends, net counted {stats_sent}", c.sends));
                }
                trace += c;
            }
            p.check(|| format!("episode {episode} round {rounds}"), problems);
            firings += out.summary.firings;
            added += out.summary.tuples_added;
            data_msgs += out.summary.data_messages;
            longest += out.summary.longest_path;
            sim_ms += out.duration.as_nanos() as f64 / 1e6;
            rounds += 1;
        }
        acks += sent(&net, "ack") - acks0;
        retransmits += sent(&net, "retransmit") - retransmits0;
        rejected += received(&net, "ingest_rejected");
        p.ops_per_episode.push(rounds);
        last = Some((net, gen));
        episode += 1;
    }

    if traced {
        let rounds = p.op.len() as f64;
        let (net, gen) = last.expect("at least one episode runs");
        let ldbs =
            (0..NODES).map(|i| (NodeId(i as u64), net.node(NodeId(i as u64)).ldb())).collect();
        let pool: Vec<_> = (0..NODES)
            .flat_map(|i| {
                (0..4).map(move |q| {
                    (NodeId(i as u64), selection_query(&main_rel(i), q * 16, q * 16 + 8))
                })
            })
            .collect();
        p.layer("core.ingest_rejected", rejected as f64);
        probe_relational(&gen.config, &ldbs, &pool).record(&mut p);
        p.layer("core.update.firings", ratio(firings as f64, rounds));
        p.layer("core.update.tuples_added", ratio(added as f64, rounds));
        p.layer("core.update.useful_ratio", ratio(added as f64, firings as f64));
        p.layer("core.update.data_msgs", ratio(data_msgs as f64, rounds));
        p.layer("core.update.longest_path", ratio(longest as f64, rounds));
        p.layer("core.update.sim_ms", ratio(sim_ms, rounds));
        p.layer("core.reliable.acks", ratio(acks as f64, rounds));
        p.layer("core.reliable.retransmits", ratio(retransmits as f64, rounds));
        p.layer("net.sim.events", ratio(trace.events() as f64, rounds));
        p.layer("net.sim.timer_fires", ratio(trace.timers as f64, rounds));
        p.layer("net.sim.sends", ratio(trace.sends as f64, rounds));
        p.layer("net.sim.send_kb", ratio(trace.send_bytes as f64 / 1024.0, rounds));
        p.layer("workload.delta_share", crate::stats::median(&delta_share).unwrap_or(0.0));
    }
    p
}
