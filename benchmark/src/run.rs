//! The pipeline every workload runs against the public `fhg` API.
//!
//! After set-up, the run repeats rounds until `--seconds` have passed;
//! each round runs every phase, in this order (how many blocks, slabs and
//! job batches a round makes is the workload's
//! [`Round`](crate::workloads::Round) plan):
//!
//! 1. **ready** — register every tenant on a fresh service →
//!    `build_pending` → one answered query per tenant.  The new service
//!    then serves the rest of the round.
//! 2. **events** — per block: a checkpoint (snapshot + WAL truncate), then
//!    1024 events, each `apply_event` → WAL append → `patch` plus one
//!    read-after-write `query_totals`, with an audit step every few events.
//! 3. **reads** — a slice of closed-loop single-client reads.
//! 4. **batch** — `query_batch` slabs.
//! 5. **recover** — drop → `recover` (the last block's snapshot + its 1024
//!    WAL frames) → one answered query per tenant.
//! 6. **analyze** — the fixed `analyze_schedule` job batch.
//!
//! Load model: one client thread in a closed loop (the service is an
//! in-process library whose callers wait on every call).  The library's
//! worker pool is installed with one thread (see `main.rs`), so the
//! parallel calls — `build_pending`, `query_batch`, `recover` — run on
//! the client thread.  Each phase times only the calls named in its
//! metric; answer checks run between timed calls, untimed.
//!
//! # Why rounds
//!
//! On a shared host the speed the program gets drifts: other tenants of
//! the machine contend for the shared cache and the second vCPU in
//! regimes that last from a third of a second to minutes (a pointer chase
//! over an L3-resident array took 36–89 ns per load over 40 s, while L2-
//! and DRAM-resident ones stayed within 5%).  Rounds interleave the
//! phases, so every phase samples the same span of the run and a regime
//! change cannot land on one phase alone.  Each phase's statistic is the
//! interquartile mean over its slices — rounds, event blocks, slabs, job
//! batches (see [`interquartile_mean`]) — and latency percentiles are
//! taken over every sample of the run.  `setup_s` is the median of its
//! repetitions.
//!
//! A slow regime can also outlast a whole run: every phase then slows by
//! the same factor, up to 1.8×, and no statistic of one run removes it.
//! Tail percentiles follow such regimes most, so they are printed but are
//! not metrics.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fhg::core::serving::{PatchOutcome, ProfileService, Query, RecoveryReport, WalSync, WalWriter};
use fhg::core::{analyze_schedule, analyze_schedule_reference, AnalysisEngine, AnalysisTotals};
use fhg::core::{CycleProfile, GraphChecker, ScheduleAnalysis};
use fhg::graph::{EdgeEvent, EdgeEventKind};

use crate::check::{analysis_eq, reference_window, totals_eq, Failures};
use crate::stats::{interquartile_mean, median, percentile, Lcg};
use crate::trace::Tracer;
use crate::workloads::{setup, Content, Phase, Spec, World};

/// The fewest rounds a run makes.
const MIN_ROUNDS: usize = 3;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Events per block: between two WAL checkpoints.
const BLOCK: u64 = 1024;
/// Reads or events between two sampled answer checks.
const CHECK_STRIDE: u64 = 97;

/// What the run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: f64,
    pub rounds: usize,
    pub ready_s: f64,
    pub query_qps: f64,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    pub full_query_p99_us: f64,
    /// Samples of each query kind the percentiles were taken over.
    pub query_samples: (usize, usize),
    pub batch_qps: f64,
    pub event_p50_us: f64,
    pub event_p99_us: f64,
    pub events_per_s: f64,
    pub recover_s: f64,
    pub analyze_s: f64,
    /// The headline metric untraced and traced (traced run only).
    pub overhead: Option<(f64, f64)>,

    // Layer counters, reported by the traced run.
    pub tenants_per_key: f64,
    pub build_classes: u64,
    pub build_attendance: u64,
    pub totals_nodes: u64,
    pub events: u64,
    pub recolored: u64,
    pub patched: u64,
    pub rebuilt: u64,
    pub lanes: u64,
    pub classes_verified: u64,
    pub audit_steps: u64,
    pub audited: u64,
    pub audit_mismatches: u64,
    pub recover_quarantined: u64,
    pub wal_bytes_per_frame: f64,
    pub snapshot_bytes_per_tenant: f64,
    pub recovery: Option<RecoveryReport>,
    pub hits: u64,
    pub misses: u64,
    /// Per engine, in [`ENGINES`] order: nanoseconds and holidays analysed.
    pub engine_ns: [u64; 3],
    pub engine_holidays: [u64; 3],
}

/// Per-slice samples, reduced to metrics when the run ends.
#[derive(Default)]
struct Slices {
    ready: Vec<f64>,
    reads: Vec<ReadSlice>,
    /// Per event block: the timed event latencies, and events per second.
    blocks: Vec<Sketch>,
    block_rates: Vec<f64>,
    slabs: Vec<f64>,
    recover: Vec<f64>,
    /// Analyze batch times, untraced and traced.
    analyze: [Vec<f64>; 2],
    /// Headline latencies (ns), untraced and traced, for `trace.overhead`.
    headline: [Vec<u64>; 2],
}

/// A sorted sample cut down to at most `SKETCH` evenly spaced order
/// statistics, each weighing the samples it stands for: percentiles of a
/// pool of slices stay exact to a thousandth of rank while a slice's
/// memory stays fixed however fast the program runs.
struct Sketch {
    count: usize,
    sum_ns: u64,
    points: Vec<(u64, f64)>,
}

const SKETCH: usize = 1024;

impl Sketch {
    fn new(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        let (n, k) = (ns.len(), ns.len().min(SKETCH));
        let points = (0..k).map(|i| (ns[(2 * i + 1) * n / (2 * k)], n as f64 / k as f64)).collect();
        Sketch { count: n, sum_ns: ns.iter().sum(), points }
    }
}

/// Nearest-rank percentile `p` of the pooled sketches, in microseconds.
fn pooled_percentile(sketches: &[&Sketch], p: f64) -> f64 {
    let mut points: Vec<(u64, f64)> = sketches.iter().flat_map(|s| s.points.clone()).collect();
    points.sort_unstable_by_key(|&(v, _)| v);
    let target = p * points.iter().map(|&(_, w)| w).sum::<f64>();
    let mut seen = 0.0;
    for &(v, w) in &points {
        seen += w;
        if seen >= target {
            return us(v);
        }
    }
    points.last().map_or(0.0, |&(v, _)| us(v))
}

/// One read slice's latencies of both query kinds.
struct ReadSlice {
    totals: Sketch,
    full: Sketch,
}

/// The run's recorder: spans, failures, op counts and measurements.
pub struct Rec {
    pub tr: Tracer,
    pub fail: Failures,
    pub attempted: u64,
    pub m: Measured,
}

impl Rec {
    /// One traced `query_totals`, counted as an op; an error is a failure.
    fn query_totals(
        &mut self,
        svc: &ProfileService,
        tenant: u64,
        window: (u64, u64),
        nodes: usize,
    ) -> Option<AnalysisTotals> {
        self.attempted += 1;
        self.tr.begin("serving.query_totals");
        let answer = svc.query_totals(tenant, window.0, window.1);
        self.tr.end();
        if self.tr.on() {
            self.m.totals_nodes += nodes as u64;
        }
        match answer {
            Ok(totals) => Some(totals),
            Err(e) => {
                self.fail.report("query_totals", format!("tenant={tenant} window={window:?}: {e}"));
                None
            }
        }
    }
}

/// One drawn request.
struct Request {
    tenant: u64,
    window: (u64, u64),
    full: bool,
    round: u64,
}

/// Draws requests in rounds: every round visits each tenant once, in a
/// fresh seeded order, so each tenant's share of the stream is exact and
/// the median of a mix of tenant sizes cannot drift between them.  Every
/// `full_every`-th round is full per-node queries.  `t0 < 2^16`; widths
/// below the workload's cap.
struct Requests {
    rng: Lcg,
    order: Vec<u64>,
    next: usize,
    round: u64,
}

impl Requests {
    fn new(seed: u64, stream: u64, order: Vec<u64>) -> Self {
        Requests { rng: Lcg::new(seed, stream), order, next: 0, round: 0 }
    }

    fn draw(&mut self, spec: &Spec, world: &World) -> Request {
        if self.next == 0 {
            self.rng.shuffle(&mut self.order);
        }
        let tenant = self.order[self.next];
        let round = self.round;
        self.next += 1;
        if self.next == self.order.len() {
            self.next = 0;
            self.round += 1;
        }
        let full = round % spec.full_every == spec.full_every - 1;
        Request { tenant, window: self.window(spec, world, tenant), full, round }
    }

    fn window(&mut self, spec: &Spec, world: &World, tenant: u64) -> (u64, u64) {
        let cap = if spec.width_cycles > 0 {
            spec.width_cycles * world.content(tenant).view().cycle()
        } else {
            spec.width_holidays
        };
        let t0 = self.rng.below(1 << 16);
        (t0, t0 + self.rng.below(cap.max(1)))
    }
}

/// A served answer kept for checking against the reference.
enum Served {
    Totals(AnalysisTotals),
    Full(ScheduleAnalysis),
}

/// Check budget in node-holidays of reference sweeps; a sample is checked
/// while the budget lasts.
struct CheckBudget(u64);

impl CheckBudget {
    fn take(&mut self, nodes: usize, window: (u64, u64)) -> bool {
        let cost = nodes as u64 * window.1.saturating_sub(window.0).max(1);
        if cost <= self.0 {
            self.0 -= cost;
            true
        } else {
            false
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// p50 of an unsorted sample, in microseconds.
fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    us(percentile(ns, 0.5))
}

pub struct Pipeline<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
    dir: PathBuf,
    pub rec: Rec,
    checks: CheckBudget,
    slices: Slices,
    /// Whether this is the traced run: its headline phase alternates
    /// untraced and traced op groups (see [`Pipeline::bucket`]).
    traced: bool,
    reads: Requests,
    slabs: Requests,
    events: Lcg,
    raw_windows: Requests,
    done: u64,
    checked_reads: u64,
}

impl<'a> Pipeline<'a> {
    pub fn new(spec: &'a Spec, seed: u64, seconds: f64, dir: &Path, trace: bool) -> Self {
        Pipeline {
            spec,
            seed,
            seconds,
            dir: dir.to_path_buf(),
            rec: Rec {
                tr: Tracer::new(trace),
                fail: Failures::default(),
                attempted: 0,
                m: Measured::default(),
            },
            checks: CheckBudget(spec.check_budget),
            slices: Slices::default(),
            traced: trace,
            reads: Requests::new(seed, 0x4EAD, Vec::new()),
            slabs: Requests::new(seed, 0xBA7C, Vec::new()),
            events: Lcg::new(seed, 0xE7E7),
            raw_windows: Requests::new(seed, 0xA1A1, Vec::new()),
            done: 0,
            checked_reads: 0,
        }
    }

    /// Set-up, then rounds until `--seconds` have passed, then the metrics.
    pub fn run(&mut self) {
        let mut world = self.setup();
        self.reads = Requests::new(self.seed, 0x4EAD, world.readable.clone());
        self.slabs = Requests::new(self.seed, 0xBA7C, world.readable.clone());
        let Some(mut wal) = self.open_wal() else {
            return;
        };
        let start = Instant::now();
        let mut round = 0;
        while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < self.seconds {
            let mut svc = self.ready(&world, round == 0);
            for _ in 0..self.spec.round.blocks {
                self.event_block(&mut world, &mut svc, &mut wal);
            }
            self.read_slice(&world, &svc);
            for _ in 0..self.spec.round.slabs {
                self.batch_slab(&world, &svc);
            }
            let stats = svc.stats();
            self.rec.m.hits += stats.hits;
            self.rec.m.misses += stats.misses;
            let svc = self.recover(&world, svc);
            let stats = svc.stats();
            self.rec.m.hits += stats.hits;
            self.rec.m.misses += stats.misses;
            drop(svc);
            for _ in 0..self.spec.round.analyze {
                self.analyze(&world);
            }
            round += 1;
        }
        self.rec.tr.set_on(self.traced);
        self.rec.m.rounds = round;
        let wal_bytes = std::fs::metadata(wal.path()).map_or(0, |md| md.len());
        self.rec.m.wal_bytes_per_frame = wal_bytes.saturating_sub(8) as f64 / BLOCK as f64;
        self.reduce();
    }

    /// In the traced run's headline phase, op groups alternate between
    /// untraced (even) and traced (odd), so `trace.overhead` compares the
    /// two on the same stream under the same conditions.  Returns the
    /// group's sample bucket: 1 for traced, 0 otherwise.
    fn bucket(&mut self, phase: Phase, group: u64) -> usize {
        if !self.alternates(phase) {
            return 0;
        }
        let traced = group % 2 == 1;
        self.rec.tr.set_on(traced);
        usize::from(traced)
    }

    fn alternates(&self, phase: Phase) -> bool {
        self.traced && self.spec.headline == phase
    }

    /// Restores tracing after a headline phase's alternation.
    fn end_alternation(&mut self) {
        self.rec.tr.set_on(self.traced);
    }

    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        self.rec.tr.write_tsv(path)
    }

    /// Generates the inputs `SETUP_REPS` times and keeps the last world.
    fn setup(&mut self) -> World {
        let mut times = Vec::new();
        let mut world = None;
        for _ in 0..SETUP_REPS {
            drop(world.take());
            let t = Instant::now();
            self.rec.tr.begin_op("op.setup");
            world = Some(setup(self.spec, self.seed, &mut self.rec.tr));
            self.rec.tr.end();
            times.push(t.elapsed().as_secs_f64());
        }
        self.rec.m.setup_s = median(&times);
        world.expect("at least one setup repetition")
    }

    /// register → `build_pending` → one answered query per tenant, on a
    /// fresh service, which is returned to serve the round.
    fn ready(&mut self, world: &World, first: bool) -> ProfileService {
        let rec = &mut self.rec;
        let mut keys = Vec::with_capacity(world.tenants.len());
        rec.tr.begin_op("op.ready");
        let t = Instant::now();
        let mut svc = ProfileService::new();
        for (id, &c) in world.tenants.iter().enumerate() {
            let content = &world.contents[c];
            rec.tr.begin("serving.register");
            let key = svc.register(id as u64, content.graph(), content.scheduler());
            rec.tr.end();
            match key {
                Ok(key) => keys.push((key, id as u64)),
                Err(e) => rec.fail.report("register", format!("tenant={id}: {e}")),
            }
        }
        rec.tr.call("serving.build_pending", || svc.build_pending());
        for id in 0..world.tenants.len() as u64 {
            let nodes = world.content(id).graph().node_count();
            black_box(rec.query_totals(&svc, id, (0, 4096), nodes));
        }
        self.slices.ready.push(t.elapsed().as_secs_f64());
        rec.tr.end();
        rec.attempted += 1;
        let quarantined = svc.quarantined_count();
        if quarantined > 0 {
            rec.fail.report("build_pending", format!("{quarantined} slots quarantined"));
        }
        if first {
            let m = &mut rec.m;
            m.tenants_per_key = svc.tenant_count() as f64 / svc.key_count() as f64;
            keys.sort_unstable();
            keys.dedup_by_key(|(key, _)| *key);
            for &(_, tenant) in &keys {
                if let Some(profile) = svc.profile(tenant) {
                    m.build_classes += profile.cycle();
                }
                m.build_attendance += world.content(tenant).view().attendance_per_cycle();
            }
        }
        svc
    }

    /// One block: a checkpoint, then 1024 events on the dynamic tenants.
    /// Each event toggles a pool edge (delete if present, insert if not);
    /// `apply_event` → WAL append → `patch` is the timed part, and a
    /// read-after-write `query_totals` on the tenant follows.  The block's
    /// events stay in the WAL for the round's `recover`.
    fn event_block(&mut self, world: &mut World, svc: &mut ProfileService, wal: &mut WalWriter) {
        let (audit_every, audit_slots) = self.spec.audit;
        let mut paused = Duration::ZERO;
        let mut latencies = Vec::with_capacity(BLOCK as usize);
        let mismatches_before = svc.audit_stats().mismatches;
        let alternating = self.alternates(Phase::Events);
        self.checkpoint(svc, wal);
        // The checkpoint's snapshot ends in an fsync of the shared disk,
        // whose time does not repeat within a tenth; it is timed on its own
        // as `persist.snapshot`, so the block rate starts after it.
        let block = Instant::now();
        for _ in 0..BLOCK {
            let bucket = self.bucket(Phase::Events, self.done);
            let rec = &mut self.rec;
            let rng = &mut self.events;
            let (tenant, (u, v)) = {
                let (tenant, pool) = &world.dynamic[rng.below(world.dynamic.len() as u64) as usize];
                (*tenant, pool[rng.below(pool.len() as u64) as usize])
            };
            let index = world.tenants[tenant as usize];
            let Content::Dynamic(scheduler) = &mut world.contents[index] else {
                unreachable!("event targets are dynamic tenants")
            };
            let kind = if scheduler.graph().has_edge(u, v) {
                EdgeEventKind::Delete
            } else {
                EdgeEventKind::Insert
            };
            let event = EdgeEvent { kind, u, v, holiday: self.done };
            rec.tr.begin_op("op.event");
            rec.attempted += 1;
            let t = Instant::now();
            rec.tr.begin("dynamic.apply_event");
            let repair = scheduler.apply_event(event);
            rec.tr.end();
            let repair = match repair {
                Ok(repair) => repair,
                Err(e) => {
                    rec.tr.end();
                    rec.fail.report("apply_event", format!("tenant={tenant} {event:?}: {e}"));
                    continue;
                }
            };
            rec.tr.begin("persist.wal_append");
            let appended = wal.append(tenant, &repair);
            rec.tr.end();
            let outcome = match appended {
                Ok(()) => {
                    rec.tr.begin("serving.patch");
                    let outcome = svc.patch(tenant, &repair);
                    rec.tr.end();
                    Some(outcome)
                }
                Err(e) => {
                    rec.fail.report("wal_append", format!("tenant={tenant}: {e}"));
                    None
                }
            };
            let ns = t.elapsed().as_nanos() as u64;
            if alternating {
                self.slices.headline[bucket].push(ns);
            }
            if bucket == 0 {
                latencies.push(ns);
            }
            self.done += 1;
            rec.m.events += 1;
            rec.m.recolored += repair.row_changes().len() as u64;
            match outcome {
                Some(Ok(PatchOutcome::Patched(stats))) => {
                    rec.m.patched += 1;
                    rec.m.lanes += stats.lanes_patched as u64;
                    rec.m.classes_verified += stats.classes_verified as u64;
                }
                Some(Ok(PatchOutcome::Rebuilt)) => rec.m.rebuilt += 1,
                Some(Ok(PatchOutcome::Cold)) => {
                    rec.fail.report("patch", format!("tenant={tenant}: slot was cold"))
                }
                Some(Err(e)) => rec.fail.report("patch", format!("tenant={tenant}: {e}")),
                None => {}
            }

            let content = &world.contents[index];
            let nodes = content.graph().node_count();
            let window = self.raw_windows.window(self.spec, world, tenant);
            let answer = rec.query_totals(svc, tenant, window, nodes);
            if self.done.is_multiple_of(audit_every) {
                rec.attempted += 1;
                let audited = rec.tr.call("serving.audit_step", || svc.audit_step(audit_slots));
                rec.m.audit_steps += 1;
                rec.m.audited += audited as u64;
            }
            rec.tr.end();

            if self.done.is_multiple_of(CHECK_STRIDE) && self.checks.take(nodes, window) {
                let t = Instant::now();
                if let Some(served) = answer {
                    let reference = reference_window(content, window);
                    if !totals_eq(&served, &reference.totals()) {
                        rec.fail.report(
                            "read_after_write",
                            format!("tenant={tenant} window={window:?} differs from the reference"),
                        );
                    }
                }
                paused += t.elapsed();
            }
        }
        self.end_alternation();
        let rate = BLOCK as f64 / (block.elapsed() - paused).as_secs_f64();
        self.slices.block_rates.push(rate);
        if !latencies.is_empty() {
            self.slices.blocks.push(Sketch::new(latencies));
        }

        let mismatches = svc.audit_stats().mismatches - mismatches_before;
        if mismatches > 0 {
            self.rec.m.audit_mismatches += mismatches;
            self.rec.fail.report("audit_step", format!("{mismatches} audit mismatches"));
        }
        // Every patched profile equals a fresh build of its final view.
        for (tenant, _) in &world.dynamic {
            let fresh = fresh_profile(world.content(*tenant));
            if !svc.profile(*tenant).is_some_and(|p| p.content_eq(&fresh)) {
                self.rec
                    .fail
                    .report("patch", format!("tenant={tenant} profile differs from a fresh build"));
            }
        }
    }

    fn open_wal(&mut self) -> Option<WalWriter> {
        match WalWriter::with_sync(&self.dir, WalSync::Never) {
            Ok(wal) => Some(wal),
            Err(e) => {
                self.rec.fail.report("wal_open", e);
                None
            }
        }
    }

    /// Snapshot, then empty the WAL the snapshot supersedes.
    fn checkpoint(&mut self, svc: &ProfileService, wal: &mut WalWriter) {
        let rec = &mut self.rec;
        rec.attempted += 1;
        rec.tr.begin_op("op.event");
        rec.tr.begin("persist.snapshot");
        let written = svc.snapshot(&self.dir).and_then(|stats| {
            rec.m.snapshot_bytes_per_tenant = stats.bytes as f64 / stats.tenants.max(1) as f64;
            wal.truncate()
        });
        rec.tr.end();
        rec.tr.end();
        if let Err(e) = written {
            rec.fail.report("checkpoint", e);
        }
    }

    /// One slice of closed-loop single-client reads — `query_totals`, and
    /// full `query` every `full_every`-th request round.
    fn read_slice(&mut self, world: &World, svc: &ProfileService) {
        let length = Duration::from_millis(self.spec.round.read_ms);
        let (mut totals, mut full) = (Vec::new(), Vec::new());
        let mut samples = Vec::new();
        let alternating = self.alternates(Phase::Reads);
        let slice = Instant::now();
        while slice.elapsed() < length || totals.is_empty() || full.is_empty() {
            let req = self.reads.draw(self.spec, world);
            // Alternate whole groups of `full_every` request rounds, so
            // both buckets hold both query kinds.
            let bucket = self.bucket(Phase::Reads, req.round / self.spec.full_every);
            let (tenant, window) = (req.tenant, req.window);
            let nodes = world.content(tenant).graph().node_count();
            let check = self.checked_reads.is_multiple_of(CHECK_STRIDE);
            self.checked_reads += 1;
            let rec = &mut self.rec;
            rec.tr.begin_op("op.read");
            if req.full {
                rec.attempted += 1;
                let t = Instant::now();
                rec.tr.begin("serving.query");
                let answer = svc.query(tenant, window.0, window.1);
                rec.tr.end();
                let ns = t.elapsed().as_nanos() as u64;
                if bucket == 0 {
                    full.push(ns);
                }
                match answer {
                    Ok(a) if check && self.checks.take(nodes, window) => {
                        samples.push((tenant, window, Served::Full(a)))
                    }
                    Ok(a) => drop(black_box(a)),
                    Err(e) => {
                        rec.fail.report("query", format!("tenant={tenant} window={window:?}: {e}"))
                    }
                }
            } else {
                let t = Instant::now();
                let answer = rec.query_totals(svc, tenant, window, nodes);
                let ns = t.elapsed().as_nanos() as u64;
                if alternating {
                    self.slices.headline[bucket].push(ns);
                }
                if bucket == 0 {
                    totals.push(ns);
                }
                match black_box(answer) {
                    Some(a) if check && self.checks.take(nodes, window) => {
                        samples.push((tenant, window, Served::Totals(a)))
                    }
                    _ => {}
                }
            }
            rec.tr.end();
        }
        self.end_alternation();
        self.slices.reads.push(ReadSlice { totals: Sketch::new(totals), full: Sketch::new(full) });

        for (tenant, window, served) in samples {
            let reference = reference_window(world.content(tenant), window);
            let (op, same) = match &served {
                Served::Totals(a) => ("query_totals", totals_eq(a, &reference.totals())),
                Served::Full(a) => ("query", analysis_eq(a, &reference)),
            };
            if !same {
                self.rec.fail.report(
                    op,
                    format!("tenant={tenant} window={window:?} differs from the reference"),
                );
            }
        }
    }

    /// One `query_batch` slab of the same kind of stream; sampled answers
    /// must equal the single-call answers.
    fn batch_slab(&mut self, world: &World, svc: &ProfileService) {
        let slab: Vec<Query> = (0..self.spec.slab)
            .map(|_| {
                let req = self.slabs.draw(self.spec, world);
                Query { tenant: req.tenant, window: req.window }
            })
            .collect();
        let rec = &mut self.rec;
        rec.tr.begin_op("op.read");
        let t = Instant::now();
        rec.tr.begin("serving.query_batch");
        let answers = svc.query_batch(&slab);
        rec.tr.end();
        let elapsed = t.elapsed().as_secs_f64();
        rec.tr.end();
        self.slices.slabs.push(slab.len() as f64 / elapsed);
        rec.attempted += slab.len() as u64;
        let offset = self.slices.slabs.len() % 61;
        for (i, (q, answer)) in slab.iter().zip(&answers).enumerate() {
            match answer {
                Err(e) => rec.fail.report("query_batch", format!("{q:?}: {e}")),
                Ok(a) if i % 61 == offset => {
                    let single = svc.query_totals(q.tenant, q.window.0, q.window.1);
                    if !single.is_ok_and(|s| totals_eq(&s, &a.totals)) {
                        rec.fail.report("query_batch", format!("{q:?} differs from query_totals"));
                    }
                }
                Ok(_) => {}
            }
        }
    }

    /// drop → `recover` → one answered query per tenant.  Every recovered
    /// answer must equal the live one, and every dynamic tenant's profile
    /// a fresh build of its view.  Returns the recovered service.
    fn recover(&mut self, world: &World, live: ProfileService) -> ProfileService {
        let tenants = world.tenants.len() as u64;
        let windows: Vec<(u64, u64)> =
            (0..tenants).map(|t| self.raw_windows.window(self.spec, world, t)).collect();
        let expected: Vec<Option<AnalysisTotals>> = (0..tenants)
            .map(|t| live.query_totals(t, windows[t as usize].0, windows[t as usize].1).ok())
            .collect();
        let mut answers = Vec::with_capacity(tenants as usize);
        let rec = &mut self.rec;
        rec.attempted += 1;
        rec.tr.begin_op("op.recover");
        let t = Instant::now();
        rec.tr.call("serving.drop", || drop(live));
        rec.tr.begin("persist.recover");
        let recovered = ProfileService::recover(&self.dir);
        rec.tr.end();
        let (svc, report) = match recovered {
            Ok(ok) => ok,
            Err(e) => {
                rec.tr.end();
                rec.fail.report("recover", e);
                return ProfileService::new();
            }
        };
        for t in 0..tenants {
            let nodes = world.content(t).graph().node_count();
            answers.push(rec.query_totals(&svc, t, windows[t as usize], nodes));
        }
        self.slices.recover.push(t.elapsed().as_secs_f64());
        rec.tr.end();

        if report.quarantined > 0 {
            rec.m.recover_quarantined += report.quarantined as u64;
            rec.fail.report("recover", format!("{} slots quarantined", report.quarantined));
        }
        for (t, (got, want)) in answers.iter().zip(&expected).enumerate() {
            let same = match (got, want) {
                (Some(g), Some(w)) => totals_eq(g, w),
                _ => false,
            };
            if !same {
                rec.fail.report("recover", format!("tenant={t} answer differs from the live one"));
            }
        }
        for (tenant, _) in &world.dynamic {
            let fresh = fresh_profile(world.content(*tenant));
            if !svc.profile(*tenant).is_some_and(|p| p.content_eq(&fresh)) {
                rec.fail.report(
                    "recover",
                    format!("tenant={tenant} profile differs from a fresh build"),
                );
            }
        }
        rec.m.recovery = Some(report);
        svc
    }

    /// The fixed `analyze_schedule` job batch; the first batch's periodic
    /// results are checked against the reference sweep.
    fn analyze(&mut self, world: &World) {
        let batch = self.slices.analyze[0].len() + self.slices.analyze[1].len();
        let bucket = self.bucket(Phase::Analyze, batch as u64);
        let mut protos = world.protos.clone();
        let mut results = Vec::with_capacity(world.jobs.len());
        let rec = &mut self.rec;
        rec.tr.begin_op("op.analyze");
        let t = Instant::now();
        for job in &world.jobs {
            let engine =
                ENGINES.iter().position(|e| e.0 == job.engine).expect("every engine listed");
            let name = ENGINES[engine].1;
            let tj = Instant::now();
            rec.tr.begin(name);
            let graph = &world.job_graphs[job.graph];
            let analysis = analyze_schedule(graph, protos[job.proto].as_mut(), job.horizon);
            rec.tr.end();
            rec.m.engine_ns[engine] += tj.elapsed().as_nanos() as u64;
            rec.m.engine_holidays[engine] += job.horizon;
            results.push(analysis);
        }
        self.slices.analyze[bucket].push(t.elapsed().as_secs_f64());
        rec.tr.end();
        self.end_alternation();
        let rec = &mut self.rec;
        rec.attempted += world.jobs.len() as u64;
        if batch == 0 {
            for (i, (job, analysis)) in world.jobs.iter().zip(&results).enumerate() {
                if job.engine == AnalysisEngine::Sequential {
                    continue;
                }
                let mut scheduler = world.protos[job.proto].clone();
                let graph = &world.job_graphs[job.graph];
                let reference = analyze_schedule_reference(graph, scheduler.as_mut(), job.horizon);
                if !analysis_eq(analysis, &reference) {
                    rec.fail.report(
                        "analyze_schedule",
                        format!("job={i} engine={:?} differs from the reference", job.engine),
                    );
                }
            }
        }
        black_box(results);
    }

    /// Reduces the slices to the end-to-end metrics: interquartile means
    /// over the slices, and percentiles over all the samples of every slice.
    fn reduce(&mut self) {
        let s = &mut self.slices;
        let m = &mut self.rec.m;
        m.ready_s = interquartile_mean(&s.ready);
        m.recover_s = interquartile_mean(&s.recover);
        m.batch_qps = interquartile_mean(&s.slabs);
        m.analyze_s = interquartile_mean(&s.analyze[0]);
        m.events_per_s = interquartile_mean(&s.block_rates);
        let blocks: Vec<&Sketch> = s.blocks.iter().collect();
        m.event_p50_us = pooled_percentile(&blocks, 0.5);
        m.event_p99_us = pooled_percentile(&blocks, 0.99);

        let totals: Vec<&Sketch> = s.reads.iter().map(|r| &r.totals).collect();
        let full: Vec<&Sketch> = s.reads.iter().map(|r| &r.full).collect();
        let n_totals: usize = totals.iter().map(|t| t.count).sum();
        let n_full: usize = full.iter().map(|t| t.count).sum();
        let time_ns: u64 = totals.iter().map(|t| t.sum_ns).sum();
        m.query_qps = n_totals as f64 / (time_ns as f64 / 1e9);
        m.query_p50_us = pooled_percentile(&totals, 0.5);
        m.query_p99_us = pooled_percentile(&totals, 0.99);
        m.full_query_p99_us = pooled_percentile(&full, 0.99);
        m.query_samples = (n_totals, n_full);

        if self.traced {
            m.overhead = Some(match self.spec.headline {
                Phase::Analyze => (median(&s.analyze[0]), median(&s.analyze[1])),
                Phase::Events | Phase::Reads => {
                    (p50_us(&mut s.headline[0]), p50_us(&mut s.headline[1]))
                }
            });
        }
    }
}

/// Per analysis engine: its span name and its two per-layer metrics.
pub const ENGINES: [(AnalysisEngine, &str, &str, &str); 3] = [
    (
        AnalysisEngine::Sequential,
        "analysis.sequential",
        "analysis.sequential_ms",
        "analysis.sequential.ns_per_holiday",
    ),
    (
        AnalysisEngine::ShardedSweep,
        "analysis.sharded_sweep",
        "analysis.sharded_sweep_ms",
        "analysis.sharded_sweep.ns_per_holiday",
    ),
    (
        AnalysisEngine::ClosedForm,
        "analysis.closed_form",
        "analysis.closed_form_ms",
        "analysis.closed_form.ns_per_holiday",
    ),
];

fn fresh_profile(content: &Content) -> CycleProfile {
    let graph = content.graph();
    CycleProfile::build(
        content.view(),
        content.scheduler().first_holiday(),
        graph.node_count(),
        &GraphChecker::new(graph),
    )
}
