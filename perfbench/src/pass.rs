//! What one pass over a workload measures, and how long it runs.

use crate::stats::normalise;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;
use std::time::Instant;

/// Host ms the [`reference_ms`] loop takes on the machine the benchmark
/// was defined on (Intel Xeon at 2.0 GHz, 2 vCPUs, lightly loaded).
/// Timings are reported in ms at that reference speed: see
/// [`crate::stats::normalise`].
pub const REFERENCE_MS: f64 = 2.0;

/// Keys in the reference loop's hash map and ordered set: about 10 MB, more
/// than the host's caches hold.
const REFERENCE_KEYS: u64 = 200_000;
/// Lookups per pass of the reference loop.
const REFERENCE_PROBES: u64 = 8_192;

/// The reference loop's data, built once per process before the first
/// timed interval.
struct ReferenceData {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    set: BTreeSet<(u64, u64)>,
    probes: Vec<u64>,
}

static REFERENCE: OnceLock<ReferenceData> = OnceLock::new();

impl ReferenceData {
    fn build() -> ReferenceData {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) % (4 * REFERENCE_KEYS)
        };
        let mut data =
            ReferenceData { map: HashMap::default(), set: BTreeSet::new(), probes: Vec::new() };
        for i in 0..REFERENCE_KEYS {
            let k = next();
            data.map.insert(k, i);
            data.set.insert((k, i));
        }
        data.probes = (0..REFERENCE_PROBES).map(|_| next()).collect();
        data
    }

    /// Hash lookups and ordered-set seeks of every probe; allocates nothing.
    fn pass(&self) -> u64 {
        let mut acc = 0u64;
        for &k in &self.probes {
            acc = acc.wrapping_add(self.map.get(&k).copied().unwrap_or(1));
            if let Some(&(a, b)) = self.set.range((k, 0)..).next() {
                acc ^= a.wrapping_mul(31).wrapping_add(b);
            }
        }
        acc
    }
}

/// Host ms of a fixed piece of work that uses no coDB code: hash-map
/// lookups and ordered-set seeks over data built once per process. It
/// slows down under host contention much as the program's own hashing and
/// ordered-set work does, so its time, taken just before every timed
/// interval, measures how fast the host was running then. It allocates
/// nothing, and an untimed pass over the same probes first brings its data
/// back into the caches, so its time does not depend on what the program
/// allocated or touched before it. (A loop that allocated was tried: when
/// the program retained and churned more memory, that loop slowed by
/// 10-20% and hid part of the program's own slowdown.)
pub fn reference_ms() -> f64 {
    let data = REFERENCE.get_or_init(ReferenceData::build);
    let warm = data.pass();
    let t = Instant::now();
    let timed = data.pass();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box((warm, timed));
    ms
}

/// One kind of timed interval (set-up, cold op or timed op) over a pass.
#[derive(Default)]
pub struct Timings {
    /// Host time of each interval.
    pub host: Vec<f64>,
    /// The part of each interval spent waiting for the disk (fsyncs),
    /// which the reference loop does not track.
    pub io: Vec<f64>,
    /// [`reference_ms`] just before each interval.
    pub reference: Vec<f64>,
}

impl Timings {
    /// Intervals recorded.
    pub fn len(&self) -> usize {
        self.host.len()
    }

    fn push(&mut self, host: f64, io: f64, reference: f64) {
        self.host.push(host);
        self.io.push(io);
        self.reference.push(reference);
    }

    /// The times at reference speed: the CPU part scaled, the disk part as
    /// measured.
    pub fn at_reference(&self) -> Vec<f64> {
        normalise(&self.host, &self.io, &self.reference, REFERENCE_MS)
    }
}

/// How many episodes and operations a pass runs.
pub enum Budget {
    /// Until the deadline: each episode runs at most its workload's cap of
    /// operations, and at least one episode with one operation runs.
    Until(Instant),
    /// Exactly the operations per episode of an earlier pass, so a traced
    /// pass repeats the untraced one input for input.
    Replay(Vec<usize>),
}

impl Budget {
    /// Whether episode `index` should run.
    pub fn episode(&self, index: usize) -> bool {
        match self {
            Budget::Until(deadline) => index == 0 || Instant::now() < *deadline,
            Budget::Replay(ops) => index < ops.len(),
        }
    }

    /// Whether episode `episode`, having run `done` operations, runs one more.
    pub fn op(&self, episode: usize, done: usize, cap: usize) -> bool {
        match self {
            Budget::Until(deadline) => done == 0 || (done < cap && Instant::now() < *deadline),
            Budget::Replay(ops) => done < ops[episode],
        }
    }
}

/// Failures keep at most this many descriptions for the report.
const KEPT_FAILURES: usize = 8;

/// The measurements of one pass.
#[derive(Default)]
pub struct Pass {
    /// Seconds of each episode's set-up.
    pub setup: Timings,
    /// Ms of each episode's cold operation.
    pub cold: Timings,
    /// Ms of each timed operation.
    pub op: Timings,
    /// [`reference_ms`] of the interval [`Pass::start`] began.
    pending_reference: Option<f64>,
    /// KB each timed operation moved.
    pub op_kb: Vec<f64>,
    /// Messages each timed operation took.
    pub op_msgs: Vec<f64>,
    /// Timed operations per episode (what a [`Budget::Replay`] repeats).
    pub ops_per_episode: Vec<usize>,
    /// Operations attempted, cold ones included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Per-layer metrics (filled by traced passes).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts a traced and an untraced pass over the same inputs must agree on.
    pub fingerprint: Vec<u64>,
}

impl Pass {
    /// Times the reference loop, then starts a timed interval; the next
    /// [`Pass::setup`], [`Pass::cold`] or [`Pass::op`] records it.
    pub fn start(&mut self) -> Instant {
        self.pending_reference = Some(reference_ms());
        Instant::now()
    }

    fn reference(&mut self) -> f64 {
        self.pending_reference.take().expect("start() opens every timed interval")
    }

    /// Records an episode's set-up time, `io_s` of it spent on fsyncs.
    pub fn setup(&mut self, seconds: f64, io_s: f64) {
        let reference = self.reference();
        self.setup.push(seconds, io_s, reference);
    }

    /// Records an episode's cold operation time.
    pub fn cold(&mut self, ms: f64) {
        let reference = self.reference();
        self.cold.push(ms, 0.0, reference);
    }

    /// Records a timed operation's time, `io_ms` of it spent on fsyncs.
    pub fn op(&mut self, ms: f64, io_ms: f64) {
        let reference = self.reference();
        self.op.push(ms, io_ms, reference);
    }

    /// Counts one attempted operation, failed when `problems` is non-empty.
    pub fn check(&mut self, what: impl FnOnce() -> String, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                let mut shown = problems[..problems.len().min(3)].join("; ");
                if problems.len() > 3 {
                    shown += &format!("; and {} more", problems.len() - 3);
                }
                self.failures.push(format!("{}: {shown}", what()));
            }
        }
    }

    /// Sets per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// The generator of episode `episode`'s inputs under `seed`.
pub fn episode_rng(seed: u64, episode: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (episode as u64).wrapping_mul(0x9E37_79B9))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
