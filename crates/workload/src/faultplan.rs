//! Deterministic fault-injection harness: seeded schedules of
//! crash / restart / checkpoint / message-loss events driven through the
//! simulator clock, replayable from a printed seed.
//!
//! A [`FaultPlan`] is generated from a scenario and one `u64` seed:
//! a sequence of update *rounds*, each with an initiator and a list of
//! [`Fault`]s pinned to simulator event counts (relative to the round's
//! injection). [`run_fault_plan`] executes the plan twice —
//!
//! * a **control** network runs the identical update schedule with no
//!   faults and lossless pipes;
//! * the **experiment** network runs it with per-pipe message loss, nodes
//!   crashing mid-round (their in-memory state dropped on the floor),
//!   stores checkpointing (snapshot + WAL compaction) at arbitrary
//!   points, and every crashed node restarted from disk — between rounds
//!   by default, or **mid-round** via a scheduled [`FaultKind::Restart`]
//!   — which triggers the crash-rejoin handshake (`codb_core::rejoin`):
//!   survivors release the update traffic they parked behind the rejoin
//!   barrier while the node was down, push a `RejoinRepair` re-send of
//!   every link toward it, and, when the generator picks the freshly
//!   rejoined node as the next initiator, the rejoin-as-initiator path
//!   runs too. The [`FaultPlan::overlapping_rejoin`] and
//!   [`FaultPlan::rolling_restart`] constructors build schedules where
//!   all of that interleaves with live update traffic.
//!
//! [`FaultPlan::crash_restart`] is the smallest schedule: one victim
//! killed mid-update, restarted from disk once the survivors drain, and
//! one clean follow-up update — started by the recovered victim itself
//! when it is the chosen initiator, whose persisted counters and bumped
//! epoch keep the new update id from colliding with the dead
//! incarnation's. Its report carries each restart's [`RecoveryStats`] and
//! the per-round message counts of both networks, from which
//! [`FaultPlanReport::rejoin_cost_messages`] and
//! [`FaultPlanReport::barrier_cost_messages`] (the E17 columns) derive.
//!
//! The harness then asserts *reconvergence*: every experiment node's LDB
//! must match its control counterpart — strictly for rule styles without
//! existentials, up to marked-null renaming (isomorphism) plus
//! null-factory counter equality for GLAV rules, whose null labels
//! legitimately depend on apply order.
//!
//! Everything is deterministic: the simulator is seeded from the plan
//! seed (loss draws included), the schedule is a pure function of the
//! seed, and a failing case can be replayed from the seed printed in the
//! failure message.
//!
//! Determinism buys a second harness for free:
//! [`run_fault_plan_differential`] executes one plan twice — all stores
//! JSON, then all stores binary — and demands byte-for-byte identical
//! reconverged states, isolating the on-disk codec as the only moving
//! part.

use crate::scenario::{RuleStyle, Scenario};
use codb_core::{
    Body, CoDbNetwork, Envelope, NodeId, NodeReport, NodeSettings, UpdateId, HARNESS_PEER,
};
use codb_net::{PipeConfig, SimConfig};
use codb_store::{Codec, RecoveryStats, Store, SyncPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// What a scheduled fault does to its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the node: all in-memory state (protocol caches, counters,
    /// store handle) is dropped; the durable directory survives. The node
    /// is restarted from disk at the end of the round — unless a
    /// [`FaultKind::Restart`] for it is scheduled later in the plan, in
    /// which case it stays down until that fault fires.
    Crash,
    /// Restart a previously crashed node from its data directory
    /// **mid-round** (no drain): its rejoin handshake — and the barrier
    /// release plus `RejoinRepair` push it triggers at every survivor —
    /// interleaves with the round's live update traffic instead of
    /// running in an idle network. A `Restart` for a node that is up (or
    /// never went down) is a no-op.
    Restart,
    /// Checkpoint the node's store: snapshot, WAL rotation, compaction.
    Checkpoint,
    /// Kill **every live node at once** — the single-host power-loss
    /// scenario a shared group-commit scheduler must survive (`node` is
    /// ignored). Combined with [`FaultPlan::lose_unsynced_tail`], each
    /// store's WAL is chopped to an arbitrary point at or past its
    /// durable watermark before the restarts — the crash lands *between
    /// batch formation and drain*, and the runner proves no acked record
    /// is lost.
    HostCrash,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Simulator events after the round's injection at which to fire.
    pub at_event: u64,
    /// The node the fault hits.
    pub node: NodeId,
    /// What happens.
    pub kind: FaultKind,
}

/// One update round of the schedule.
#[derive(Clone, Debug)]
pub struct Round {
    /// Node that initiates this round's global update (it must be up when
    /// the round starts).
    pub initiator: NodeId,
    /// Faults fired while the round runs, in `at_event` order.
    pub faults: Vec<Fault>,
}

/// A complete, replayable fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The workload (topology, rules, data).
    pub scenario: Scenario,
    /// The seed everything derives from (print this to replay).
    pub seed: u64,
    /// Per-pipe message-drop probability in the experiment network (the
    /// reliable layer retransmits; loss reorders and delays, never
    /// silently removes).
    pub loss: f64,
    /// WAL durability policy for every node's store.
    pub sync: SyncPolicy,
    /// On-disk payload codec for every node's store. Schedules are codec-
    /// independent, so [`run_fault_plan_differential`] can execute the
    /// same plan under both codecs and demand identical outcomes.
    pub codec: Codec,
    /// Simulate the page-cache loss of a real power cut: when a node (or
    /// the whole host) crashes, its live WAL is truncated to a seeded
    /// point at or past the **durable watermark** (the fsync-covered
    /// prefix; see `codb_store::Store::durable_wal_records`) before the
    /// restart — appended-but-never-acked records vanish, possibly
    /// leaving a torn tail. The runner then asserts every *acked* record
    /// survived recovery. With `false` (the legacy behaviour) crashes
    /// drop in-memory state only and the full written file survives.
    pub lose_unsynced_tail: bool,
    /// The update rounds. The generator keeps the last round fault-free
    /// so the network can reconverge.
    pub rounds: Vec<Round>,
}

impl FaultPlan {
    /// Generates the schedule for `scenario` from `seed`: 2–4 rounds,
    /// each with an up-front initiator, at most one crash per round (one
    /// node down at a time), checkpoints sprinkled on live nodes, and a
    /// fault-free final round whose initiator is biased toward the most
    /// recently crashed node (the rejoin-as-initiator scenario).
    pub fn generate(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_F1A9);
        let nodes = scenario.topology.node_count() as u64;
        let pick = |rng: &mut SmallRng| NodeId(rng.gen_range(0..nodes));
        let n_rounds = rng.gen_range(2usize..5);
        let mut rounds = Vec::with_capacity(n_rounds);
        let mut last_crashed: Option<NodeId> = None;
        for r in 0..n_rounds {
            let final_round = r + 1 == n_rounds;
            let initiator = match last_crashed {
                // Rejoin-as-initiator: after a crash round, the recovered
                // node usually leads the next one.
                Some(v) if rng.gen_bool(0.75) => v,
                _ => pick(&mut rng),
            };
            let mut faults = Vec::new();
            if !final_round {
                if rng.gen_bool(0.8) {
                    let victim = pick(&mut rng);
                    faults.push(Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: victim,
                        kind: FaultKind::Crash,
                    });
                    last_crashed = Some(victim);
                }
                if rng.gen_bool(0.5) {
                    faults.push(Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: pick(&mut rng),
                        kind: FaultKind::Checkpoint,
                    });
                }
                faults.sort_by_key(|f| f.at_event);
            }
            rounds.push(Round { initiator, faults });
        }
        let loss = if rng.gen_bool(0.5) { 0.0 } else { 0.08 };
        FaultPlan {
            scenario,
            seed,
            loss,
            sync: SyncPolicy::Always,
            codec: Codec::Binary,
            lose_unsynced_tail: false,
            rounds,
        }
    }

    /// The many-node single-host crash schedule: every node persists
    /// through one **shared group-commit scheduler** (`max_batch` = node
    /// count, `max_records` = 8 × node count), the host dies mid-update
    /// at a seeded event offset — with the unsynced WAL tails lost, i.e.
    /// the crash lands between batch formation and drain — and every
    /// node restarts from disk for a clean reconvergence round. The
    /// runner proves no acked record is lost
    /// ([`FaultPlanReport::acked_records_preserved`]).
    pub fn host_crash_group_commit(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x057C_4A5B);
        let nodes = scenario.topology.node_count() as u64;
        FaultPlan {
            scenario,
            seed,
            loss: 0.0,
            sync: SyncPolicy::GroupCommit { max_batch: nodes, max_records: 8 * nodes },
            codec: Codec::Binary,
            lose_unsynced_tail: true,
            rounds: vec![
                Round {
                    initiator: scenario.sink(),
                    faults: vec![Fault {
                        at_event: rng.gen_range(1u64..80),
                        node: NodeId(0), // ignored by HostCrash
                        kind: FaultKind::HostCrash,
                    }],
                },
                Round { initiator: scenario.sink(), faults: vec![] },
            ],
        }
    }

    /// The overlapping-rejoin schedule: round 1 crashes a non-initiator
    /// node mid-update and **leaves it down** — survivors' update traffic
    /// toward it exhausts retransmission and parks behind the rejoin
    /// barrier, pausing the update with its Dijkstra–Scholten deficits
    /// held. Round 2 starts a fresh update and restarts the victim
    /// *mid-round* ([`FaultKind::Restart`]), so the barrier release, the
    /// `RejoinRepair` push and the resumed round-1 update all interleave
    /// with live round-2 traffic. A fault-free final round then pins
    /// reconvergence to the never-crashed control.
    pub fn overlapping_rejoin(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0E4A_B17A);
        let nodes = scenario.topology.node_count() as u64;
        let sink = scenario.sink();
        let mut victim = NodeId(rng.gen_range(0..nodes));
        if victim == sink {
            victim = NodeId((victim.0 + 1) % nodes);
        }
        FaultPlan {
            scenario,
            seed,
            loss: if rng.gen_bool(0.5) { 0.0 } else { 0.05 },
            sync: SyncPolicy::Always,
            codec: Codec::Binary,
            lose_unsynced_tail: false,
            rounds: vec![
                Round {
                    initiator: sink,
                    faults: vec![Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: victim,
                        kind: FaultKind::Crash,
                    }],
                },
                Round {
                    initiator: sink,
                    faults: vec![Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: victim,
                        kind: FaultKind::Restart,
                    }],
                },
                Round { initiator: sink, faults: vec![] },
            ],
        }
    }

    /// The rolling-restart-under-sustained-load schedule (window (b) of
    /// the rejoin barrier), under a shared group-commit scheduler with
    /// unsynced WAL tails lost at every crash: two adjacent nodes `v` and
    /// `w` go down staggered — `v` crashes in round 1; round 2 crashes
    /// `w` and then restarts `v` **mid-round**, so `v`'s `Rejoin`
    /// handshake toward the still-dead `w` exhausts retransmission and
    /// parks instead of being abandoned; round 3 restarts `w` mid-round,
    /// whose own announcement releases the parked handshake and completes
    /// both rejoins under live traffic. Every round carries an update
    /// (sustained load) and a clean final round pins reconvergence.
    ///
    /// Requires a topology of at least three nodes.
    pub fn rolling_restart(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2011_1E57);
        let nodes = scenario.topology.node_count() as u64;
        assert!(nodes >= 3, "rolling restart needs at least 3 nodes");
        let sink = scenario.sink();
        // Two adjacent-id victims, neither of them the initiator (ids are
        // adjacent in every generated topology's edge layout for chains;
        // elsewhere adjacency is not required for the window — only that
        // v's rejoin set includes w, which holds whenever they share a
        // rule).
        let mut v = rng.gen_range(0..nodes);
        let (v, w) = loop {
            let w = (v + 1) % nodes;
            if NodeId(v) != sink && NodeId(w) != sink {
                break (NodeId(v), NodeId(w));
            }
            v = (v + 1) % nodes;
        };
        let sync = SyncPolicy::GroupCommit { max_batch: nodes, max_records: 8 * nodes };
        FaultPlan {
            scenario,
            seed,
            loss: 0.0,
            sync,
            codec: Codec::Binary,
            lose_unsynced_tail: true,
            rounds: vec![
                Round {
                    initiator: sink,
                    faults: vec![Fault {
                        at_event: rng.gen_range(1u64..40),
                        node: v,
                        kind: FaultKind::Crash,
                    }],
                },
                Round {
                    initiator: sink,
                    faults: vec![
                        Fault {
                            at_event: rng.gen_range(1u64..20),
                            node: w,
                            kind: FaultKind::Crash,
                        },
                        Fault {
                            at_event: rng.gen_range(25u64..60),
                            node: v,
                            kind: FaultKind::Restart,
                        },
                    ],
                },
                Round {
                    initiator: sink,
                    faults: vec![Fault {
                        at_event: rng.gen_range(1u64..40),
                        node: w,
                        kind: FaultKind::Restart,
                    }],
                },
                Round { initiator: sink, faults: vec![] },
            ],
        }
    }

    /// The single crash/restart schedule: round 1, started by the
    /// scenario sink, checkpoints `victim` every `checkpoint_every` events
    /// (if asked) and crashes it `kill_at` events in; once the survivors
    /// drain, the victim restarts from disk and runs its rejoin handshake.
    /// Round 2, clean and started by `initiator` — possibly the recovered
    /// victim — reconverges the network. Lossless pipes,
    /// [`SyncPolicy::Always`], and the written WAL survives the crash
    /// whole.
    ///
    /// [`update_events`] calibrates a `kill_at` that lands mid-update.
    pub fn crash_restart(
        scenario: Scenario,
        victim: NodeId,
        kill_at: u64,
        initiator: NodeId,
        checkpoint_every: Option<u64>,
    ) -> FaultPlan {
        let checkpoint = |at_event| Fault { at_event, node: victim, kind: FaultKind::Checkpoint };
        let mut faults: Vec<Fault> = match checkpoint_every {
            Some(k) if k > 0 => (1..=kill_at / k).map(|i| checkpoint(i * k)).collect(),
            _ => Vec::new(),
        };
        faults.push(Fault { at_event: kill_at, node: victim, kind: FaultKind::Crash });
        FaultPlan {
            scenario,
            seed: SimConfig::default().seed,
            loss: 0.0,
            sync: SyncPolicy::Always,
            codec: Codec::Binary,
            lose_unsynced_tail: false,
            rounds: vec![
                Round { initiator: scenario.sink(), faults },
                Round { initiator, faults: vec![] },
            ],
        }
    }

    /// Total crash faults in the schedule (a host crash counts once).
    pub fn crash_count(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.faults)
            .filter(|f| matches!(f.kind, FaultKind::Crash | FaultKind::HostCrash))
            .count()
    }
}

/// One round's update as a network ran it.
#[derive(Clone, Copy, Debug)]
pub struct RoundCost {
    /// The id the initiator minted for the round's update.
    pub update: UpdateId,
    /// Protocol messages sent from the round's injection until it drained
    /// (mid-round restart handshakes included, the injection excluded).
    pub messages: u64,
}

/// What [`run_fault_plan`] observed.
#[derive(Clone, Debug)]
pub struct FaultPlanReport {
    /// The plan's seed (for replay).
    pub seed: u64,
    /// Update rounds executed.
    pub rounds: usize,
    /// Crashes injected (every one eventually restarted — mid-round or at
    /// its round's end).
    pub crashes: usize,
    /// Crashes that landed while the network still had work in flight
    /// (the rest hit a round that had already quiesced).
    pub crashes_mid_round: usize,
    /// Mid-round restarts performed (scheduled [`FaultKind::Restart`]
    /// faults that found their node down).
    pub live_restarts: usize,
    /// Every restart's recovery summary, in restart order.
    pub recoveries: Vec<(NodeId, RecoveryStats)>,
    /// Each round's update in the experiment network.
    pub round_costs: Vec<RoundCost>,
    /// Each round's update in the never-crashed control.
    pub control_round_costs: Vec<RoundCost>,
    /// Checkpoints taken (scheduled ones that found their node alive).
    pub checkpoints: u64,
    /// `Rejoin` + `RejoinAck` messages across the whole run.
    pub rejoin_messages: u64,
    /// Messages parked behind the rejoin barrier across the whole run
    /// (survivor-side holds instead of abandonments).
    pub barrier_parked: u64,
    /// Parked messages released (re-sent in seq order) when their barred
    /// peer was heard from again.
    pub barrier_released: u64,
    /// `RejoinRepair` batches sent — the push that restores a rejoined
    /// node's lost records at barrier release rather than at the next
    /// organic update.
    pub repair_messages: u64,
    /// Nodes whose final LDB equals the control's strictly.
    pub nodes_equal: usize,
    /// Nodes whose final LDB is isomorphic to the control's (equality up
    /// to marked-null renaming).
    pub nodes_isomorphic: usize,
    /// Nodes whose null-factory counter matches the control's.
    pub factories_equal: usize,
    /// Node count (denominator for the three above).
    pub nodes: usize,
    /// True when every node reconverged under the rule style's notion of
    /// equality (strict without existentials, isomorphic + equal factory
    /// counters with them).
    pub converged: bool,
    /// Records that were **acked durable** at crash moments (summed over
    /// every crash with [`FaultPlan::lose_unsynced_tail`] set) — the
    /// denominator of the no-acked-loss guarantee.
    pub acked_records_checked: u64,
    /// True when every restart replayed at least its store's acked
    /// record count from the same generation — i.e. no record a fsync
    /// had covered was lost, even though the unsynced tails were
    /// destroyed. Trivially true when `lose_unsynced_tail` is off.
    pub acked_records_preserved: bool,
}

impl FaultPlanReport {
    /// The rejoin cost in messages (the E17 "rejoin cost" column): the
    /// `Rejoin`/`RejoinAck` handshakes plus what the final, clean round
    /// re-sent beyond the same round in the never-crashed control.
    pub fn rejoin_cost_messages(&self) -> u64 {
        let last = |costs: &[RoundCost]| costs.last().map_or(0, |c| c.messages);
        self.rejoin_messages
            + last(&self.round_costs).saturating_sub(last(&self.control_round_costs))
    }

    /// The barrier's share of the rejoin cost in messages (the E17
    /// "barrier cost" column): parked traffic re-sent at release plus the
    /// `RejoinRepair` push.
    pub fn barrier_cost_messages(&self) -> u64 {
        self.barrier_released + self.repair_messages
    }
}

fn settings(loss: f64) -> NodeSettings {
    NodeSettings {
        incremental_updates: true,
        pipe: PipeConfig::lan().with_loss(loss),
        ..NodeSettings::default()
    }
}

/// Simulator events a never-crashed network spends on the scenario's
/// first update from its sink (start-up excluded) — the scale for a kill
/// point that lands mid-update, e.g. a third of the way through.
pub fn update_events(scenario: Scenario) -> u64 {
    let mut net = CoDbNetwork::build_with(
        scenario.build_config(),
        SimConfig::default(),
        settings(0.0),
        false,
    )
    .expect("scenario configs validate");
    let start = net.sim().events_processed();
    net.run_update(scenario.sink());
    net.sim().events_processed() - start
}

/// The power-cut model, captured from a store the instant before its
/// node dies: the durable (fsync-covered, therefore acked) WAL prefix.
pub(crate) struct DurableWatermark {
    generation: u64,
    durable_frames: u64,
    durable_len: u64,
    wal_path: PathBuf,
}

impl DurableWatermark {
    pub(crate) fn capture(store: &Store) -> Self {
        DurableWatermark {
            generation: store.generation(),
            durable_frames: store.durable_wal_records(),
            durable_len: store.durable_wal_len(),
            wal_path: store.wal_path().to_owned(),
        }
    }

    /// Chops the WAL, whose store handle must be gone, to a seeded point at
    /// or past the watermark: the unsynced tail a power cut takes with it.
    /// The cut may land mid-frame; recovery truncates the torn remainder.
    pub(crate) fn chop(&self, rng: &mut SmallRng) {
        let len = std::fs::metadata(&self.wal_path).expect("crashed node's WAL exists").len();
        let cut = self.durable_len + rng.gen_range(0..len.saturating_sub(self.durable_len) + 1);
        if cut < len {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&self.wal_path)
                .and_then(|f| f.set_len(cut))
                .expect("truncating the crashed WAL");
        }
    }

    /// Acked records the crash had to preserve.
    pub(crate) fn acked_records(&self) -> u64 {
        self.durable_frames
    }

    /// The no-acked-loss check: recovery from the same generation replayed
    /// at least every record that was acked when the crash hit.
    pub(crate) fn preserved_by(&self, stats: &RecoveryStats) -> bool {
        stats.generation == self.generation && stats.wal_records_replayed >= self.durable_frames
    }
}

/// Rejoin-handshake and barrier counters from node reports. A crash wipes
/// the victim's in-memory report, so the runner banks a victim's counts
/// before killing it and adds the live nodes' counts at the end.
#[derive(Default)]
struct RejoinCounters {
    rejoin: u64,
    barrier_parked: u64,
    barrier_released: u64,
    repairs: u64,
}

impl RejoinCounters {
    fn add(&mut self, report: &NodeReport) {
        let get = |key: &str| report.messages_sent.get(key).copied().unwrap_or(0);
        self.rejoin += get("rejoin") + get("rejoin_ack");
        self.barrier_parked += get("barrier_parked");
        self.barrier_released += get("barrier_released");
        self.repairs += get("rejoin_repair");
    }
}

/// Kills `id` if it is alive, banking its rejoin and barrier counters.
/// With `lose_tail`, first captures the store's durable watermark and —
/// once the store handle is gone — chops the WAL past it. Returns
/// `Some(watermark)` when the node was alive and killed (`Some(None)`
/// when no tail loss was requested or no store was attached).
fn kill_node(
    net: &mut CoDbNetwork,
    id: NodeId,
    lose_tail: bool,
    rng: &mut SmallRng,
    banked: &mut RejoinCounters,
) -> Option<Option<DurableWatermark>> {
    let node = net.sim().peer(id.peer())?;
    banked.add(node.report());
    let watermark = node.store().filter(|_| lose_tail).map(DurableWatermark::capture);
    if !net.crash_node(id) {
        return None;
    }
    // The fault must actually be injected: a silently skipped chop would
    // let the no-acked-loss assertions pass without ever exercising the
    // lost-tail scenario they exist to prove.
    if let Some(w) = &watermark {
        w.chop(rng);
    }
    Some(watermark)
}

/// Restarts `victim` from its data directory — live (mid-round, no
/// drain) or drained — records its recovery, and folds the no-acked-loss
/// check for its banked watermark into the running verdict.
fn restart_victim(
    net: &mut CoDbNetwork,
    plan: &FaultPlan,
    data_root: &Path,
    victim: NodeId,
    watermark: Option<DurableWatermark>,
    live: bool,
    report: &mut FaultPlanReport,
) -> Result<(), codb_store::StoreError> {
    let name = &net.config().nodes.iter().find(|n| n.id == victim).expect("configured").name;
    let dir = CoDbNetwork::node_data_dir(data_root, name);
    let stats = if live {
        net.restart_node_from_disk_live(victim, &dir, plan.sync, plan.codec)?
    } else {
        net.restart_node_from_disk(victim, &dir, plan.sync, plan.codec)?
    };
    if let Some(w) = watermark {
        report.acked_records_checked += w.acked_records();
        report.acked_records_preserved &= w.preserved_by(&stats);
    }
    report.recoveries.push((victim, stats));
    Ok(())
}

/// Runs `plan` against a never-crashed control, persisting every node
/// under `data_root/<node-name>`. The directory must be fresh.
pub fn run_fault_plan(
    plan: &FaultPlan,
    data_root: &Path,
) -> Result<FaultPlanReport, codb_store::StoreError> {
    run_fault_plan_impl(plan, data_root, None).map(|(report, _)| report)
}

/// [`run_fault_plan`] with a flight recorder attached to the experiment
/// network (the control runs untraced): every net, protocol and store
/// event of the faulted run — barrier holds and releases included —
/// lands in `tracer` for postmortem inspection.
pub fn run_fault_plan_traced(
    plan: &FaultPlan,
    data_root: &Path,
    tracer: &codb_trace::Tracer,
) -> Result<FaultPlanReport, codb_store::StoreError> {
    run_fault_plan_impl(plan, data_root, Some(tracer)).map(|(report, _)| report)
}

/// The runner, also returning every experiment node's final state (name →
/// snapshot of LDB + null factory) for the codec-differential harness.
fn run_fault_plan_impl(
    plan: &FaultPlan,
    data_root: &Path,
    tracer: Option<&codb_trace::Tracer>,
) -> Result<(FaultPlanReport, Vec<(String, codb_relational::Snapshot)>), codb_store::StoreError> {
    let config = plan.scenario.build_config();

    // Control: same rounds, no faults, lossless pipes.
    let mut control =
        CoDbNetwork::build_with(config.clone(), SimConfig::default(), settings(0.0), false)
            .expect("scenario configs validate");
    let control_round_costs = plan
        .rounds
        .iter()
        .map(|round| {
            let outcome = control.run_update(round.initiator);
            RoundCost { update: outcome.update, messages: outcome.messages }
        })
        .collect();

    // Experiment: seeded loss, every node durable.
    let sim_config = SimConfig {
        seed: plan.seed,
        default_pipe: PipeConfig::lan().with_loss(plan.loss),
        max_events: 0,
    };
    let mut net = CoDbNetwork::build_with(config.clone(), sim_config, settings(plan.loss), false)
        .expect("scenario configs validate");
    if let Some(t) = tracer {
        net.attach_tracer(t);
    }
    net.open_persistence_all(data_root, plan.sync, plan.codec)?;

    let mut report = FaultPlanReport {
        seed: plan.seed,
        rounds: plan.rounds.len(),
        crashes: 0,
        crashes_mid_round: 0,
        live_restarts: 0,
        recoveries: Vec::new(),
        round_costs: Vec::with_capacity(plan.rounds.len()),
        control_round_costs,
        checkpoints: 0,
        rejoin_messages: 0,
        barrier_parked: 0,
        barrier_released: 0,
        repair_messages: 0,
        nodes_equal: 0,
        nodes_isomorphic: 0,
        factories_equal: 0,
        nodes: config.nodes.len(),
        converged: false,
        acked_records_checked: 0,
        acked_records_preserved: true,
    };
    // A crash wipes the victim's in-memory statistics report, so counters
    // it accumulated (rejoin announcements, acks, barrier holds from an
    // earlier crash's handshake) must be banked before the kill or the
    // whole-run totals silently undercount on multi-crash schedules.
    let mut counters = RejoinCounters::default();
    // Seeded chop points for lose_unsynced_tail (deterministic per plan
    // seed, like everything else).
    let mut chop_rng = SmallRng::seed_from_u64(plan.seed ^ 0xC40F_7A11);
    // Nodes currently down, with their banked crash watermark. A node
    // whose plan schedules a later Restart fault stays here across round
    // boundaries instead of being auto-restarted.
    let mut down: std::collections::BTreeMap<NodeId, Option<DurableWatermark>> =
        std::collections::BTreeMap::new();
    // Remaining scheduled Restart faults per node, counted over the whole
    // plan up front so each round's end knows whom to leave down.
    let mut pending_restarts: std::collections::BTreeMap<NodeId, usize> =
        std::collections::BTreeMap::new();
    for round in &plan.rounds {
        for fault in &round.faults {
            if fault.kind == FaultKind::Restart {
                *pending_restarts.entry(fault.node).or_default() += 1;
            }
        }
    }
    for round in &plan.rounds {
        let round_start = net.sim().events_processed();
        let sent_before = net.sim().stats().sent;
        let initiator = net.node(round.initiator);
        let update = UpdateId {
            origin: round.initiator,
            epoch: initiator.epoch(),
            seq: initiator.update_state_seq(),
        };
        net.sim_mut().inject(
            HARNESS_PEER,
            round.initiator.peer(),
            Envelope::control(Body::StartUpdate),
        );
        // The generator schedules at most one crash per round, but the
        // plan fields are public and hand-written schedules are a
        // supported use — so the runner tracks *every* node taken down,
        // this round or earlier, and restarts each exactly once.
        for fault in &round.faults {
            // Step the sim clock up to the fault's event offset (or until
            // the round quiesces first — a "late" fault, still applied).
            while net.sim().events_processed() - round_start < fault.at_event
                && net.sim_mut().step()
            {}
            let mid_round = !net.sim().is_quiescent();
            match fault.kind {
                FaultKind::Crash => {
                    // kill_node returns None for a node already down
                    // (e.g. duplicate crash entries), so the down map
                    // stays duplicate-free.
                    if let Some(w) = kill_node(
                        &mut net,
                        fault.node,
                        plan.lose_unsynced_tail,
                        &mut chop_rng,
                        &mut counters,
                    ) {
                        down.insert(fault.node, w);
                        report.crashes += 1;
                        report.crashes_mid_round += usize::from(mid_round);
                    }
                }
                FaultKind::HostCrash => {
                    // The whole host dies at once: every live node goes
                    // down mid-whatever-it-was-doing, every store's
                    // unsynced tail is at risk together — the scenario a
                    // *shared* fsync scheduler must get right.
                    let mut any = false;
                    for nc in &config.nodes {
                        if let Some(w) = kill_node(
                            &mut net,
                            nc.id,
                            plan.lose_unsynced_tail,
                            &mut chop_rng,
                            &mut counters,
                        ) {
                            down.insert(nc.id, w);
                            any = true;
                        }
                    }
                    if any {
                        report.crashes += 1;
                        report.crashes_mid_round += usize::from(mid_round);
                    }
                }
                FaultKind::Restart => {
                    // Live restart: the rejoin handshake (and the barrier
                    // release + repair it triggers) runs interleaved with
                    // whatever traffic the round still has in flight.
                    if let Some(e) = pending_restarts.get_mut(&fault.node) {
                        *e = e.saturating_sub(1);
                    }
                    if let Some(watermark) = down.remove(&fault.node) {
                        restart_victim(
                            &mut net,
                            plan,
                            data_root,
                            fault.node,
                            watermark,
                            true,
                            &mut report,
                        )?;
                        report.live_restarts += 1;
                    }
                }
                FaultKind::Checkpoint => {
                    // Skip nodes a crash already took down.
                    if net.sim().peer(fault.node.peer()).is_some()
                        && net.checkpoint_node(fault.node)?
                    {
                        report.checkpoints += 1;
                    }
                }
            }
        }
        // Drain the round: survivors run until nothing is in flight.
        // Traffic toward still-crashed nodes exhausts its retransmission
        // budget and — for update data and handshake envelopes — parks
        // behind the rejoin barrier rather than being abandoned, so the
        // round can quiesce with an update paused mid-flight.
        net.sim_mut().run_until_quiescent();
        // Exclude the injected control message itself.
        let messages = net.sim().stats().sent - sent_before - 1;
        report.round_costs.push(RoundCost { update, messages });
        // Restart every node still down before the next round — except
        // those a later Restart fault claims, which stay dead so their
        // handshake lands mid-round. Each restart here runs the rejoin
        // handshake to quiescence, so the next initiator (often one of
        // these very nodes) starts from a repaired cache topology.
        let due: Vec<NodeId> = down
            .keys()
            .copied()
            .filter(|n| pending_restarts.get(n).copied().unwrap_or(0) == 0)
            .collect();
        for victim in due {
            let watermark = down.remove(&victim).expect("picked from the map");
            restart_victim(&mut net, plan, data_root, victim, watermark, false, &mut report)?;
        }
    }

    // Compare every node against the control.
    let mut final_states = Vec::with_capacity(config.nodes.len());
    for nc in &config.nodes {
        let ours = net.node(nc.id);
        let theirs = control.node(nc.id);
        report.nodes_equal += usize::from(ours.ldb() == theirs.ldb());
        report.nodes_isomorphic +=
            usize::from(codb_relational::isomorphic(ours.ldb(), theirs.ldb()));
        report.factories_equal += usize::from(ours.nulls_invented() == theirs.nulls_invented());
        counters.add(ours.report());
        final_states.push((nc.name.clone(), ours.snapshot()));
    }
    report.converged = if matches!(plan.scenario.rule_style, RuleStyle::ProjectGlav) {
        report.nodes_isomorphic == report.nodes && report.factories_equal == report.nodes
    } else {
        report.nodes_equal == report.nodes
    };
    report.rejoin_messages = counters.rejoin;
    report.barrier_parked = counters.barrier_parked;
    report.barrier_released = counters.barrier_released;
    report.repair_messages = counters.repairs;
    Ok((report, final_states))
}

/// What [`run_fault_plan_differential`] observed: the same seeded
/// schedule executed once per codec, plus the cross-codec verdict.
#[derive(Clone, Debug)]
pub struct CodecDifferentialReport {
    /// The run whose stores were JSON end to end.
    pub json: FaultPlanReport,
    /// The run whose stores were binary end to end.
    pub binary: FaultPlanReport,
    /// True when every node's reconverged state is **byte-for-byte**
    /// identical between the two runs (states are compared by their
    /// deterministic binary encoding, so this is exact equality of
    /// instance, schemas and null-factory counters — not isomorphism).
    pub states_identical: bool,
}

impl CodecDifferentialReport {
    /// The acceptance bar: both runs reconverged to their controls *and*
    /// to each other, byte for byte.
    pub fn agreed(&self) -> bool {
        self.json.converged && self.binary.converged && self.states_identical
    }
}

/// Codec-differential fault injection: executes the identical seeded
/// schedule twice — once with every store in [`Codec::Json`], once in
/// [`Codec::Binary`] (under `data_root/json` and `data_root/binary`) —
/// and compares the reconverged states byte for byte.
///
/// The simulator, the loss draws and the schedule are all pure functions
/// of the plan seed, so the *only* degree of freedom between the two runs
/// is the on-disk encoding: any divergence is a codec bug (a decode that
/// silently altered data, a counter that did not round-trip, a cache
/// entry that vanished), which is exactly what this harness exists to
/// catch.
pub fn run_fault_plan_differential(
    plan: &FaultPlan,
    data_root: &Path,
) -> Result<CodecDifferentialReport, codb_store::StoreError> {
    let json_plan = FaultPlan { codec: Codec::Json, ..plan.clone() };
    let binary_plan = FaultPlan { codec: Codec::Binary, ..plan.clone() };
    let (json, json_states) = run_fault_plan_impl(&json_plan, &data_root.join("json"), None)?;
    let (binary, binary_states) =
        run_fault_plan_impl(&binary_plan, &data_root.join("binary"), None)?;
    let states_identical = json_states.len() == binary_states.len()
        && json_states
            .iter()
            .zip(&binary_states)
            .all(|((ja, js), (ba, bs))| ja == ba && js.to_binary_bytes() == bs.to_binary_bytes());
    Ok(CodecDifferentialReport { json, binary, states_identical })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use codb_store::ScratchDir;
    use proptest::prelude::*;

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop_oneof![
            (3usize..7).prop_map(Topology::Chain),
            (3usize..6).prop_map(Topology::Ring),
            (2usize..6).prop_map(|leaves| Topology::Star { leaves }),
        ]
    }

    fn arb_style() -> impl Strategy<Value = RuleStyle> {
        prop_oneof![Just(RuleStyle::CopyGav), Just(RuleStyle::ProjectGlav)]
    }

    /// Fixed-seed determinism: the same seed yields the same schedule.
    #[test]
    fn plans_are_deterministic() {
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(3)) };
        let a = FaultPlan::generate(s, 42);
        let b = FaultPlan::generate(s, 42);
        assert_eq!(a.rounds.len(), b.rounds.len());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::generate(s, 43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seeds, different schedules");
    }

    /// The generator never schedules faults in the final round, so every
    /// plan ends with a clean reconvergence pass.
    #[test]
    fn final_round_is_fault_free() {
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Ring(4)) };
        for seed in 0..50 {
            let plan = FaultPlan::generate(s, seed);
            assert!(plan.rounds.last().unwrap().faults.is_empty(), "seed {seed}");
        }
    }

    /// One hand-picked schedule, exercised end to end with a crash that is
    /// guaranteed to land (smoke for the runner's bookkeeping).
    #[test]
    fn explicit_crash_schedule_reconverges() {
        let tmp = ScratchDir::new("faultplan-explicit");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan {
            scenario: s,
            seed: 7,
            loss: 0.05,
            sync: SyncPolicy::Always,
            lose_unsynced_tail: false,
            codec: Codec::Binary,
            rounds: vec![
                Round {
                    initiator: s.sink(),
                    faults: vec![Fault { at_event: 9, node: NodeId(1), kind: FaultKind::Crash }],
                },
                Round {
                    // Rejoin-as-initiator, explicitly.
                    initiator: NodeId(1),
                    faults: vec![Fault {
                        at_event: 15,
                        node: NodeId(2),
                        kind: FaultKind::Checkpoint,
                    }],
                },
                Round { initiator: s.sink(), faults: vec![] },
            ],
        };
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(report.rejoin_messages >= 2, "{report:?}");
        assert!(report.converged, "replay with seed {}: {report:?}", plan.seed);
    }

    /// The codec-differential satellite: one seeded schedule with a
    /// guaranteed crash, run under JSON stores and binary stores, must
    /// reconverge to byte-for-byte identical states.
    #[test]
    fn differential_runs_agree_byte_for_byte() {
        let tmp = ScratchDir::new("faultplan-diff");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan {
            scenario: s,
            seed: 7,
            loss: 0.05,
            sync: SyncPolicy::Always,
            lose_unsynced_tail: false,
            codec: Codec::Binary, // overridden per run by the harness
            rounds: vec![
                Round {
                    initiator: s.sink(),
                    faults: vec![Fault { at_event: 9, node: NodeId(1), kind: FaultKind::Crash }],
                },
                Round {
                    initiator: NodeId(1),
                    faults: vec![Fault {
                        at_event: 15,
                        node: NodeId(2),
                        kind: FaultKind::Checkpoint,
                    }],
                },
                Round { initiator: s.sink(), faults: vec![] },
            ],
        };
        let report = run_fault_plan_differential(&plan, tmp.path()).unwrap();
        assert_eq!(report.json.crashes, 1, "{report:?}");
        assert_eq!(report.binary.crashes, 1, "{report:?}");
        assert!(report.states_identical, "{report:?}");
        assert!(report.agreed(), "{report:?}");
    }

    /// GLAV rules make the differential bar *harder*, not softer: null
    /// labels depend on apply order, but the two runs share every apply
    /// order (same seed, same schedule), so even invented nulls must
    /// match exactly across codecs.
    #[test]
    fn differential_agrees_even_with_invented_nulls() {
        let tmp = ScratchDir::new("faultplan-diff-glav");
        let s = Scenario {
            tuples_per_node: 8,
            rule_style: RuleStyle::ProjectGlav,
            ..Scenario::quick(Topology::Chain(3))
        };
        let plan = FaultPlan::generate(s, 3);
        let report = run_fault_plan_differential(&plan, tmp.path()).unwrap();
        assert!(report.agreed(), "replay with seed {}: {report:?}", plan.seed);
    }

    /// The many-node single-host tentpole scenario, fixed-seed: eight
    /// nodes share one group-commit fsync scheduler, the host dies
    /// mid-update with every unsynced WAL tail destroyed, and after the
    /// restarts (a) no acked record is lost and (b) the final clean
    /// round reconverges the network to the never-crashed control.
    #[test]
    fn host_crash_with_lost_tails_preserves_acked_records() {
        let tmp = ScratchDir::new("faultplan-hostcrash");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(8)) };
        let plan = FaultPlan::host_crash_group_commit(s, 11);
        assert!(matches!(plan.sync, SyncPolicy::GroupCommit { .. }));
        assert!(plan.lose_unsynced_tail);
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(
            report.acked_records_checked >= 8 * 2,
            "every store had at least its checkpoint head acked: {report:?}"
        );
        assert!(report.acked_records_preserved, "replay with seed {}: {report:?}", report.seed);
        assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
    }

    /// A *targeted* single-node crash with tail loss under a weak
    /// per-store policy: even EveryN's lazy watermark never loses an
    /// acked record (the chop respects only what fsync covered).
    #[test]
    fn single_crash_with_lost_tail_under_every_n() {
        let tmp = ScratchDir::new("faultplan-losttail");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan {
            scenario: s,
            seed: 21,
            loss: 0.0,
            sync: SyncPolicy::EveryN(3),
            lose_unsynced_tail: true,
            codec: Codec::Binary,
            rounds: vec![
                Round {
                    initiator: s.sink(),
                    faults: vec![Fault { at_event: 14, node: NodeId(1), kind: FaultKind::Crash }],
                },
                Round { initiator: s.sink(), faults: vec![] },
            ],
        };
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(report.acked_records_preserved, "{report:?}");
        assert!(report.converged, "{report:?}");
    }

    /// Window (a) of the rejoin barrier, fixed-seed: under group commit
    /// the victim crashes holding records it already applied and
    /// forwarded downstream but never fsynced — the chopped WAL tail
    /// destroys them, while survivors still hold them. The plan has **no
    /// follow-up round**: round 1 is the only update, so the only way
    /// the restarted victim can match the control is the `RejoinRepair`
    /// push at barrier release. Before the barrier, this schedule left
    /// the victim short (survivor traffic toward it was abandoned and
    /// nothing re-sent until the next organic update — which never
    /// comes here).
    #[test]
    fn forwarded_but_unsynced_records_repaired_at_barrier_release() {
        let tmp = ScratchDir::new("faultplan-window-a");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan {
            scenario: s,
            seed: 5,
            loss: 0.0,
            sync: SyncPolicy::GroupCommit { max_batch: 4, max_records: 32 },
            lose_unsynced_tail: true,
            codec: Codec::Binary,
            rounds: vec![Round {
                initiator: s.sink(),
                faults: vec![Fault { at_event: 16, node: NodeId(1), kind: FaultKind::Crash }],
            }],
        };
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(report.barrier_parked > 0, "survivors held, not abandoned: {report:?}");
        assert!(report.barrier_released > 0, "release fired at the handshake: {report:?}");
        assert!(report.repair_messages > 0, "repair pushed at release: {report:?}");
        assert!(report.acked_records_preserved, "{report:?}");
        assert!(
            report.converged,
            "victim must be repaired AT barrier release, not at a later update: {report:?}"
        );
    }

    /// The rolling-restart schedule, fixed-seed (window (b)): `v`
    /// restarts while its neighbor `w` is still down, so `v`'s `Rejoin`
    /// toward `w` exhausts retransmission and parks instead of being
    /// abandoned; `w`'s own announcement a round later releases it and
    /// both handshakes complete under sustained update load.
    #[test]
    fn rolling_restart_parks_the_handshake_and_reconverges() {
        let tmp = ScratchDir::new("faultplan-rolling");
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(5)) };
        let plan = FaultPlan::rolling_restart(s, 9);
        assert!(plan.lose_unsynced_tail);
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 2, "{report:?}");
        assert_eq!(report.live_restarts, 2, "both victims came back mid-round: {report:?}");
        assert!(report.barrier_parked > 0, "{report:?}");
        assert!(report.barrier_released > 0, "{report:?}");
        assert!(report.acked_records_preserved, "replay with seed {}: {report:?}", report.seed);
        assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
    }

    /// One [`FaultPlan::crash_restart`] case.
    struct CrashCase {
        scenario: Scenario,
        victim: NodeId,
        /// Kill point; `None` kills a third of the way through the update.
        kill_at: Option<u64>,
        /// The recovered victim, not the sink, starts the follow-up update.
        victim_initiates: bool,
        checkpoint_every: Option<u64>,
    }

    fn crash_case(scenario: Scenario, victim: NodeId) -> CrashCase {
        CrashCase {
            scenario,
            victim,
            kill_at: None,
            victim_initiates: false,
            checkpoint_every: None,
        }
    }

    /// Runs one case and checks what every crash/restart must show.
    fn check_crash_restart(case: CrashCase) {
        let tmp = ScratchDir::new("faultplan-crash-restart");
        let s = case.scenario;
        let victim = case.victim;
        let kill_at = case.kill_at.unwrap_or((update_events(s) / 3).max(1));
        let initiator = if case.victim_initiates { victim } else { s.sink() };
        let plan = FaultPlan::crash_restart(s, victim, kill_at, initiator, case.checkpoint_every);
        let r = run_fault_plan(&plan, tmp.path()).unwrap();

        // The kill lands mid-update unless it was scheduled past the end.
        let mid_update = case.kill_at.is_none();
        assert_eq!(r.crashes, 1, "{r:?}");
        assert_eq!(r.crashes_mid_round, usize::from(mid_update), "{r:?}");
        // One recovery, from the WAL, under a new epoch; checkpoints move
        // it to a later snapshot generation.
        let [(recovered, rec)] = r.recoveries.as_slice() else { panic!("one restart: {r:?}") };
        assert_eq!(*recovered, victim, "{r:?}");
        assert_eq!(rec.epoch, 1, "{r:?}");
        assert!(rec.wal_records_replayed >= 1, "{r:?}");
        assert_eq!(r.checkpoints > 0, case.checkpoint_every.is_some(), "{r:?}");
        assert_eq!(rec.generation >= 1, case.checkpoint_every.is_some(), "{r:?}");
        // The handshake ran; after a mid-update kill it pushed a repair
        // toward the victim (the kill may land after traffic toward it was
        // acked, so parked counts can be zero; the repair push runs).
        assert!(r.rejoin_messages >= 2, "handshake ran: {r:?}");
        if mid_update {
            assert!(r.repair_messages > 0, "{r:?}");
            assert!(r.barrier_cost_messages() > 0, "{r:?}");
        }
        // The follow-up update: a recovered initiator mints an epoch-keyed
        // id, resuming (not restarting) its persisted seq when its dead
        // incarnation had already minted one, so the ids cannot collide.
        let (ours, control) = (r.round_costs[1], r.control_round_costs[1]);
        assert_eq!(ours.update.origin, initiator, "{r:?}");
        if initiator == victim {
            assert_eq!(ours.update.epoch, rec.epoch, "{r:?}");
        }
        if victim == s.sink() {
            assert!(ours.update.seq >= 1, "counters resumed, not restarted: {r:?}");
        }
        assert_ne!(ours.update, r.round_costs[0].update, "{r:?}");
        // Re-sending toward the rejoined victim costs at least what the
        // control's incremental update ships, and the cost is reported.
        assert!(ours.messages >= control.messages, "{r:?}");
        assert!(r.rejoin_cost_messages() > 0, "{r:?}");
        // Every node reconverges: strictly for GAV rules, up to null
        // renaming for GLAV ones, with equal null factories either way.
        assert!(r.converged, "{r:?}");
        assert_eq!(r.factories_equal, r.nodes, "{r:?}");
        if s.rule_style != RuleStyle::ProjectGlav {
            assert_eq!(r.nodes_equal, r.nodes, "{r:?}");
        }
    }

    macro_rules! crash_restart_cases {
        ($($name:ident: $case:expr;)*) => {$(
            #[test]
            fn $name() {
                check_crash_restart($case);
            }
        )*};
    }

    crash_restart_cases! {
        chain_copy_rules_recover_exactly: crash_case(
            Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) },
            NodeId(1),
        );
        ring_recovers_exactly: {
            let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Ring(3)) };
            crash_case(s, NodeId(if s.sink() == NodeId(1) { 2 } else { 1 }))
        };
        glav_rules_recover_isomorphically: crash_case(
            Scenario {
                rule_style: RuleStyle::ProjectGlav,
                tuples_per_node: 12,
                ..Scenario::quick(Topology::Chain(3))
            },
            NodeId(1),
        );
        // Killing after the update finished: the "node leaves and
        // rejoins" flavour, no data lost in flight.
        late_kill_after_quiescence_still_recovers: CrashCase {
            kill_at: Some(u64::MAX),
            ..crash_case(
                Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(3)) },
                NodeId(0),
            )
        };
        // The update initiator crashes mid-own-update, recovers, and
        // starts the reconvergence update itself.
        crashed_initiator_initiates_again_without_id_collision: {
            let s = Scenario { tuples_per_node: 15, ..Scenario::quick(Topology::Chain(4)) };
            CrashCase { victim_initiates: true, ..crash_case(s, s.sink()) }
        };
        // With incremental updates on, one fallback re-send toward the
        // rejoined node repairs the crash.
        incremental_caches_resume_after_one_full_resend: crash_case(
            Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) },
            NodeId(2),
        );
        // Checkpointing the victim compacts its WAL: recovery starts from
        // a later generation with a short tail.
        victim_checkpoints_bound_wal_replay: CrashCase {
            checkpoint_every: Some(5),
            ..crash_case(
                Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) },
                NodeId(1),
            )
        };
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: cases(6), ..ProptestConfig::default() })]

        /// The tentpole property: for arbitrary seeded crash / checkpoint
        /// / loss schedules on 3–6 node topologies, the recovered network
        /// reconverges to the never-crashed control — strictly for GAV
        /// styles, isomorphically with equal GLAV null-factory counters
        /// for existential rules.
        #[test]
        fn seeded_schedules_reconverge_to_control(
            seed in any::<u64>(),
            topology in arb_topology(),
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(topology)
            };
            let tmp = ScratchDir::new("faultplan-prop");
            let plan = FaultPlan::generate(scenario, seed);
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.converged,
                "NOT reconverged; replay: FaultPlan::generate(Scenario {{ tuples_per_node: 8, \
                 rule_style: {rule_style:?}, ..Scenario::quick({topology:?}) }}, {seed}) → \
                 {report:?}"
            );
            // Crash rounds must actually have exercised the handshake.
            if report.crashes > 0 {
                prop_assert!(report.rejoin_messages >= 2, "{report:?}");
            }
        }

        /// The overlapping-rejoin property: for arbitrary seeds and
        /// topologies, a rejoin handshake that lands **mid-round** —
        /// barrier release, repair push and the resumed paused update all
        /// interleaved with live traffic — still reconverges the network
        /// to the fault-free control with zero acked records lost.
        #[test]
        fn overlapping_rejoin_reconverges(
            seed in any::<u64>(),
            topology in arb_topology(),
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(topology)
            };
            let tmp = ScratchDir::new("faultplan-overlap-prop");
            let plan = FaultPlan::overlapping_rejoin(scenario, seed);
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.converged,
                "NOT reconverged; replay: FaultPlan::overlapping_rejoin(Scenario {{ \
                 tuples_per_node: 8, rule_style: {rule_style:?}, \
                 ..Scenario::quick({topology:?}) }}, {seed}) → {report:?}"
            );
            prop_assert!(report.acked_records_preserved, "{report:?}");
            prop_assert_eq!(report.crashes, 1, "the schedule's one crash landed");
            prop_assert_eq!(report.live_restarts, 1, "the victim came back mid-round");
        }

        /// The group-commit durability property: for an arbitrary host
        /// crash point in a shared-scheduler schedule — the crash may
        /// land anywhere, including between batch formation and the
        /// drain — with every store's unsynced WAL tail destroyed, no
        /// acked record is ever lost and the network still reconverges.
        #[test]
        fn any_group_commit_crash_point_preserves_acked_records(
            seed in any::<u64>(),
            crash_at in 1u64..120,
            nodes in 3usize..9,
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(Topology::Chain(nodes))
            };
            let tmp = ScratchDir::new("faultplan-group-prop");
            let mut plan = FaultPlan::host_crash_group_commit(scenario, seed);
            // Pin the crash point the property explores (the constructor
            // seeds one; the property wants the whole range).
            plan.rounds[0].faults[0].at_event = crash_at;
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.acked_records_preserved,
                "ACKED RECORD LOST; replay: FaultPlan::host_crash_group_commit(Scenario {{ \
                 tuples_per_node: 8, rule_style: {rule_style:?}, \
                 ..Scenario::quick(Topology::Chain({nodes})) }}, {seed}) with at_event = \
                 {crash_at} → {report:?}"
            );
            prop_assert!(
                report.converged,
                "NOT reconverged; seed {seed}, crash_at {crash_at}, {nodes} nodes → {report:?}"
            );
        }
    }
}
