//! The three workloads and the inputs they generate from `--seed`.
//!
//! Every workload drives the same pipeline — ready, events, reads, batch,
//! recover, analyze — because every run reports every end-to-end metric;
//! what differs is the population, the job batch and the round plan.  Each workload gives most of its time to the path it
//! was chosen for (see README.md); the other phases run on a small side
//! population so their metrics exist and stay steady.
//!
//! The graphs are the same for every seed: a graph's colour count sets
//! its schedulers' cycles in power-of-two steps, and with them the cost of
//! every build, query and job, so graphs drawn per seed made the seed, not
//! the program, a large term in a metric's spread.  `--seed` draws what
//! the served traffic is made of: the request order and windows, the
//! slabs, the shared-tenant assignment, the edge pools and the event
//! stream.

use fhg::core::dynamic::DynamicColorBound;
use fhg::core::schedulers::residue::ResidueSchedule;
use fhg::core::schedulers::{
    FirstComeFirstGrab, PeriodicDegreeBound, PhasedGreedy, PrefixCodeScheduler,
};
use fhg::core::{AnalysisEngine, Scheduler};
use fhg::graph::generators::{erdos_renyi, random_geometric};
use fhg::graph::{Graph, NodeId};

use crate::stats::Lcg;
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// `erdos_renyi(n, degree / (n - 1))`.
    ErdosRenyi { n: usize, degree: f64 },
    /// `random_geometric` with the radius that gives `degree` on average
    /// away from the border.
    Geometric { n: usize, degree: f64 },
}

impl GraphSpec {
    fn generate(self, seed: u64) -> Graph {
        match self {
            GraphSpec::ErdosRenyi { n, degree } => {
                erdos_renyi(n, (degree / (n as f64 - 1.0)).min(1.0), seed)
            }
            GraphSpec::Geometric { n, degree } => {
                let radius = (degree / ((n as f64 - 1.0) * std::f64::consts::PI)).sqrt();
                random_geometric(n, radius, seed).into_graph()
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantKind {
    DegreeBound,
    Omega,
    /// A §6 `DynamicColorBound` tenant: the target of edge events.
    Dynamic,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    PhasedGreedy,
    FirstGrab,
    Omega,
    DegreeBound,
}

#[derive(Clone, Copy, Debug)]
pub enum Horizon {
    Holidays(u64),
    /// A multiple of the scheduler's cycle (periodic schedulers only).
    Cycles(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    pub graph: GraphSpec,
    pub kind: JobKind,
    pub horizon: Horizon,
}

/// What one round of the run does.  Rounds repeat until `--seconds` have
/// passed, so every phase's slices are spread over the whole run (see
/// `run.rs`).
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Event blocks (checkpoint + 1024 events) per round.
    pub blocks: usize,
    /// Length of the round's read slice.
    pub read_ms: u64,
    /// `query_batch` slabs per round.
    pub slabs: usize,
    /// Job batches per round.
    pub analyze: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Events,
    Reads,
    Analyze,
}

pub struct Spec {
    /// One distinct tenant content per entry.  Reads go to the static
    /// tenants when there are any, events to the dynamic ones.
    pub groups: Vec<(GraphSpec, TenantKind)>,
    /// Extra tenants that re-register an earlier tenant's exact content.
    pub shared: usize,
    pub jobs: Vec<JobSpec>,
    /// One read in `full_every` is a full per-node `query`.
    pub full_every: u64,
    /// Window widths are drawn below `width_cycles` cycles of the tenant,
    /// or below `width_holidays` when `width_cycles` is 0.
    pub width_cycles: u64,
    pub width_holidays: u64,
    /// Queries per `query_batch` call.
    pub slab: usize,
    /// Candidate edges per dynamic tenant that events toggle.
    pub pool: usize,
    /// Node-holidays of reference sweeps spent checking served windows.
    pub check_budget: u64,
    /// An audit step of `audit.1` slots every `audit.0` events.
    pub audit: (u64, usize),
    pub round: Round,
    /// The phase `trace.overhead` is measured on.
    pub headline: Phase,
}

/// The workload `name` at full size, or tiny when `tiny` (the smoke test).
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let er = |n, degree| GraphSpec::ErdosRenyi { n, degree };
    let geo = |n, degree| GraphSpec::Geometric { n, degree };
    let job = |graph, kind, horizon| JobSpec { graph, kind, horizon };
    let scale = |full: usize, small: usize| if tiny { small } else { full };
    // The side population that carries the event path on the workloads
    // not about it: many small dynamic tenants, so the event metrics do
    // not hang on one graph's draw.
    let side_dynamic = |groups: &mut Vec<(GraphSpec, TenantKind)>| {
        groups.extend((0..scale(16, 2)).map(|_| (er(64, 4.0), TenantKind::Dynamic)));
    };
    // One job per analysis engine, so every workload reports all three.
    let side_jobs = || {
        let graph = er(scale(256, 64), 8.0);
        vec![
            job(graph, JobKind::PhasedGreedy, Horizon::Holidays(1024)),
            job(graph, JobKind::Omega, Horizon::Cycles(0.5)),
            job(graph, JobKind::DegreeBound, Horizon::Cycles(4.0)),
        ]
    };
    let spec = match name {
        "fleet-read" => {
            let mut groups: Vec<_> = (0..scale(768, 24))
                .map(|i| (er(40 + (i % 17) * 2, 4.0), TenantKind::DegreeBound))
                .collect();
            side_dynamic(&mut groups);
            Spec {
                groups,
                shared: scale(256, 8),
                jobs: side_jobs(),
                full_every: 4,
                width_cycles: 0,
                width_holidays: 1 << 12,
                slab: 4096,
                pool: 16,
                check_budget: scale(40_000_000, 1_000_000) as u64,
                audit: (64, 8),
                round: Round { blocks: 1, read_ms: 250, slabs: 1, analyze: 4 },
                headline: Phase::Reads,
            }
        }
        "churn-rw" => Spec {
            groups: (0..scale(64, 6)).map(|i| (er(64 + 7 * i, 8.0), TenantKind::Dynamic)).collect(),
            shared: 0,
            jobs: side_jobs(),
            full_every: 8,
            width_cycles: 0,
            width_holidays: 1 << 12,
            slab: 4096,
            pool: 64,
            check_budget: scale(40_000_000, 1_000_000) as u64,
            audit: (64, 8),
            round: Round { blocks: 4, read_ms: 250, slabs: 1, analyze: 2 },
            headline: Phase::Events,
        },
        "offline-analyze" => {
            let (ern, geon) = (scale(2000, 200), scale(4000, 300));
            // erdos_renyi(2000, 0.005) and random_geometric(4000, 0.05).
            let erg = er(ern, 0.005 * (ern as f64 - 1.0));
            let geog = geo(geon, std::f64::consts::PI * 0.05 * 0.05 * (geon as f64 - 1.0));
            // Sized so that no engine takes more than about half the batch,
            // and the batch about half a round: a round a second long gives
            // the phases every round runs once (ready, recover) thirty
            // slices in a run.
            let mut jobs = vec![
                job(erg, JobKind::PhasedGreedy, Horizon::Holidays(2048)),
                job(erg, JobKind::FirstGrab, Horizon::Holidays(2048)),
            ];
            for k in 1..=scale(19, 2) {
                jobs.push(job(geog, JobKind::Omega, Horizon::Cycles(k as f64 / 20.0)));
            }
            // Whole cycles keep the reference check of each job cheap.
            for k in 1..=scale(6, 1) {
                jobs.push(job(geog, JobKind::DegreeBound, Horizon::Cycles(k as f64)));
            }
            jobs.extend([
                job(erg, JobKind::Omega, Horizon::Cycles(0.5)),
                job(erg, JobKind::Omega, Horizon::Cycles(2.0)),
                job(erg, JobKind::DegreeBound, Horizon::Holidays(4096)),
                job(geog, JobKind::Omega, Horizon::Cycles(2.0)),
            ]);
            // Three periodic tenants of the job graphs: an odd count, so the
            // median of the mix falls inside one tenant's latencies.
            let mut groups = vec![
                (erg, TenantKind::Omega),
                (geog, TenantKind::DegreeBound),
                (geog, TenantKind::Omega),
            ];
            side_dynamic(&mut groups);
            Spec {
                groups,
                shared: 0,
                jobs,
                full_every: 2,
                width_cycles: 4,
                width_holidays: 0,
                slab: 64,
                pool: 16,
                check_budget: scale(100_000_000, 1_000_000) as u64,
                audit: (1024, 1),
                round: Round { blocks: 4, read_ms: 300, slabs: 4, analyze: 1 },
                headline: Phase::Analyze,
            }
        }
        _ => return None,
    };
    Some(spec)
}

/// One distinct (graph, scheduler) content.
pub enum Content {
    DegreeBound(Graph, PeriodicDegreeBound),
    Omega(Graph, PrefixCodeScheduler),
    Dynamic(DynamicColorBound),
}

impl Content {
    /// The current conflict graph (a dynamic tenant's moves with events).
    pub fn graph(&self) -> &Graph {
        match self {
            Content::DegreeBound(g, _) | Content::Omega(g, _) => g,
            Content::Dynamic(d) => d.graph(),
        }
    }

    pub fn scheduler(&self) -> &dyn Scheduler {
        match self {
            Content::DegreeBound(_, s) => s,
            Content::Omega(_, s) => s,
            Content::Dynamic(d) => d,
        }
    }

    pub fn view(&self) -> &ResidueSchedule {
        self.scheduler().residue_schedule().expect("every tenant scheduler is periodic")
    }
}

#[derive(Clone)]
pub enum JobScheduler {
    PhasedGreedy(PhasedGreedy),
    FirstGrab(FirstComeFirstGrab),
    Omega(PrefixCodeScheduler),
    DegreeBound(PeriodicDegreeBound),
}

impl JobScheduler {
    pub fn as_mut(&mut self) -> &mut dyn Scheduler {
        match self {
            JobScheduler::PhasedGreedy(s) => s,
            JobScheduler::FirstGrab(s) => s,
            JobScheduler::Omega(s) => s,
            JobScheduler::DegreeBound(s) => s,
        }
    }
}

pub struct Job {
    /// Index into [`World::job_graphs`].
    pub graph: usize,
    /// Index into [`World::protos`]; stateful schedulers get one per job.
    pub proto: usize,
    pub horizon: u64,
    pub engine: AnalysisEngine,
}

/// Everything a run needs, generated from the seed.
pub struct World {
    pub contents: Vec<Content>,
    /// Tenant id `i` registers `contents[tenants[i]]`.
    pub tenants: Vec<usize>,
    /// Ids of the dynamic tenants, with the edges their events toggle.
    pub dynamic: Vec<(u64, Vec<(NodeId, NodeId)>)>,
    /// Ids of the tenants reads go to: the static ones, if there are any.
    pub readable: Vec<u64>,
    pub job_graphs: Vec<Graph>,
    /// Job schedulers, cloned before every batch: the §3 ones are stateful.
    pub protos: Vec<JobScheduler>,
    pub jobs: Vec<Job>,
}

impl World {
    pub fn content(&self, tenant: u64) -> &Content {
        &self.contents[self.tenants[tenant as usize]]
    }
}

/// Generates the inputs and constructs every scheduler; the work timed as
/// `setup_s`.  Scheduler constructors are traced as `schedulers.new`.
pub fn setup(spec: &Spec, seed: u64, tr: &mut Tracer) -> World {
    let mut rng = Lcg::new(seed, 0x5E7);
    let mut contents = Vec::with_capacity(spec.groups.len());
    for (i, &(graph_spec, kind)) in spec.groups.iter().enumerate() {
        let graph = tr.call("graph.generate", || graph_spec.generate(graph_seed(i as u64)));
        tr.begin("schedulers.new");
        let content = match kind {
            TenantKind::DegreeBound => {
                let s = PeriodicDegreeBound::new(&graph);
                Content::DegreeBound(graph, s)
            }
            TenantKind::Omega => {
                let s = PrefixCodeScheduler::omega(&graph);
                Content::Omega(graph, s)
            }
            TenantKind::Dynamic => Content::Dynamic(DynamicColorBound::new(&graph)),
        };
        tr.end();
        contents.push(content);
    }
    let mut tenants: Vec<usize> = (0..contents.len()).collect();
    let static_contents: Vec<usize> =
        (0..contents.len()).filter(|&i| !matches!(contents[i], Content::Dynamic(_))).collect();
    for _ in 0..spec.shared {
        tenants.push(static_contents[rng.below(static_contents.len() as u64) as usize]);
    }
    let dynamic = (0..contents.len())
        .filter_map(|i| match &contents[i] {
            Content::Dynamic(d) => Some((i as u64, edge_pool(d.graph(), spec.pool, &mut rng))),
            _ => None,
        })
        .collect();
    // Jobs on the same graph spec share one graph, and periodic jobs of
    // the same kind on it share one scheduler.
    let mut graph_specs: Vec<GraphSpec> = Vec::new();
    let mut job_graphs: Vec<Graph> = Vec::new();
    let mut proto_keys: Vec<(usize, JobKind)> = Vec::new();
    let mut protos: Vec<JobScheduler> = Vec::new();
    let mut jobs = Vec::with_capacity(spec.jobs.len());
    for job in &spec.jobs {
        let graph = match graph_specs.iter().position(|g| *g == job.graph) {
            Some(i) => i,
            None => {
                let salt = 0x8000 + graph_specs.len() as u64;
                let g = tr.call("graph.generate", || job.graph.generate(graph_seed(salt)));
                graph_specs.push(job.graph);
                job_graphs.push(g);
                job_graphs.len() - 1
            }
        };
        let stateful = matches!(job.kind, JobKind::PhasedGreedy | JobKind::FirstGrab);
        let proto = match proto_keys.iter().position(|k| *k == (graph, job.kind)) {
            Some(i) if !stateful => i,
            _ => {
                let g = &job_graphs[graph];
                tr.begin("schedulers.new");
                protos.push(match job.kind {
                    JobKind::PhasedGreedy => JobScheduler::PhasedGreedy(PhasedGreedy::new(g)),
                    JobKind::FirstGrab => {
                        JobScheduler::FirstGrab(FirstComeFirstGrab::new(g, GRAPHS))
                    }
                    JobKind::Omega => JobScheduler::Omega(PrefixCodeScheduler::omega(g)),
                    JobKind::DegreeBound => JobScheduler::DegreeBound(PeriodicDegreeBound::new(g)),
                });
                tr.end();
                proto_keys.push((graph, job.kind));
                protos.len() - 1
            }
        };
        let scheduler = protos[proto].as_mut();
        let horizon = match job.horizon {
            Horizon::Holidays(h) => h,
            Horizon::Cycles(c) => {
                let cycle = scheduler.residue_schedule().expect("periodic job").cycle();
                ((cycle as f64 * c) as u64).max(1)
            }
        };
        let engine = AnalysisEngine::select(scheduler, horizon);
        jobs.push(Job { graph, proto, horizon, engine });
    }
    let mut readable: Vec<u64> = (0..tenants.len() as u64)
        .filter(|&t| !matches!(contents[tenants[t as usize]], Content::Dynamic(_)))
        .collect();
    if readable.is_empty() {
        readable = (0..tenants.len() as u64).collect();
    }
    World { contents, tenants, dynamic, readable, job_graphs, protos, jobs }
}

/// The seed every workload's graphs are generated from (see the module
/// documentation).
const GRAPHS: u64 = 1;

fn graph_seed(salt: u64) -> u64 {
    GRAPHS.wrapping_mul(0x1_0000).wrapping_add(salt)
}

/// `size` node pairs for a dynamic tenant's events to toggle: half present
/// edges, half absent pairs, so the graph's density stays put however many
/// events a run makes.
fn edge_pool(graph: &Graph, size: usize, rng: &mut Lcg) -> Vec<(NodeId, NodeId)> {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|e| (e.u, e.v)).collect();
    let n = graph.node_count() as u64;
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let pair = if pool.len() % 2 == 0 && !edges.is_empty() {
            edges[rng.below(edges.len() as u64) as usize]
        } else {
            let (u, v) = (rng.below(n) as NodeId, rng.below(n) as NodeId);
            if u == v || graph.has_edge(u, v) {
                continue;
            }
            (u.min(v), u.max(v))
        };
        if !pool.contains(&pair) {
            pool.push(pair);
        }
    }
    pool
}
