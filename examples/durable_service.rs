//! Durable serving: snapshot a warm [`ProfileService`], stream live edge
//! events into the WAL, "crash", and recover bitwise-identical answers.
//!
//! The walkthrough mirrors what a real serving process would do:
//!
//! 1. register a handful of tenants (static §5 schedules plus one dynamic
//!    §6 colour-bound tenant) and build their cycle profiles;
//! 2. write a checksummed snapshot with [`ProfileService::snapshot`];
//! 3. keep serving — every edge event is appended to the WAL *before* the
//!    in-memory profile is patched;
//! 4. drop the service (the "crash") and call [`ProfileService::recover`],
//!    which loads the snapshot, replays the WAL through the same patch
//!    plane, and audits a sample;
//! 5. check that every windowed answer is bitwise identical to the answers
//!    the never-crashed service was giving.
//!
//! Run with: `cargo run --release --example durable_service`

use std::collections::BTreeMap;

use fhg::core::dynamic::DynamicColorBound;
use fhg::core::prelude::*;
use fhg::core::serving::{ProfileService, WalSync, WalWriter};
use fhg::graph::generators;
use fhg::graph::{EdgeEvent, EdgeEventKind};

fn main() {
    let dir = std::env::temp_dir().join(format!("fhg-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // --- 1. A small fleet: three static tenants and one dynamic one. ------
    let mut service = ProfileService::new();
    for tenant in 0..3u64 {
        let graph = generators::erdos_renyi(60 + 10 * tenant as usize, 0.05, 7 + tenant);
        let sched = PeriodicDegreeBound::new(&graph);
        service.register(tenant, &graph, &sched).expect("register static tenant");
    }
    let dyn_graph = generators::erdos_renyi(48, 0.06, 99);
    let mut dyn_sched = DynamicColorBound::new(&dyn_graph);
    service.register(3, &dyn_graph, &dyn_sched).expect("register dynamic tenant");
    let built = service.build_pending();
    println!("registered 4 tenants, built {built} cycle profiles");

    // --- 2. Checkpoint: atomic temp+rename+fsync snapshot. ----------------
    let stats = service.snapshot(&dir).expect("snapshot");
    println!(
        "snapshot: {} bytes for {} slots / {} tenants -> {}",
        stats.bytes,
        stats.slots,
        stats.tenants,
        dir.display()
    );

    // --- 3. Keep serving: WAL-append first, then patch in memory. ---------
    let mut wal = WalWriter::with_sync(&dir, WalSync::Always).expect("open wal");
    let (u, v) = first_absent_edge(&dyn_graph);
    for step in 0..6u64 {
        let kind = if step % 2 == 0 { EdgeEventKind::Insert } else { EdgeEventKind::Delete };
        let event = EdgeEvent { kind, u, v, holiday: 32 + step };
        let repair = dyn_sched.apply_event(event).expect("apply event");
        // Write-ahead: the frame must be durable before the profile moves.
        wal.append(3, &repair).expect("wal append");
        service.patch(3, &repair).expect("patch");
    }
    println!("appended {} WAL frames and patched the live profile", wal.frames_appended());

    // Record the answers the live service gives right before the "crash".
    let mut before = BTreeMap::new();
    for tenant in 0..4u64 {
        before.insert(tenant, service.query_totals(tenant, 5, 211).expect("live query"));
    }

    // --- 4. Crash and recover. --------------------------------------------
    drop(service);
    drop(wal);
    let (recovered, report) = ProfileService::recover(&dir).expect("recover");
    println!(
        "recovered: {} slots, {} tenants, {} restored warm, {} WAL frames replayed, \
         torn snapshot: {}, quarantined: {}",
        report.slots_loaded,
        report.tenants_restored,
        report.profiles_rehydrated,
        report.wal_frames_replayed,
        report.snapshot_torn,
        report.quarantined,
    );
    assert_eq!(report.tenants_restored, 4);
    assert_eq!(report.quarantined, 0, "a clean shutdown recovers fully warm");

    // --- 5. Every answer must be bitwise identical. -----------------------
    for (tenant, expected) in &before {
        let got = recovered.query_totals(*tenant, 5, 211).expect("recovered query");
        assert_eq!(&got, expected, "tenant {tenant} answers must survive the crash");
    }
    let totals = &before[&3];
    println!(
        "tenant 3 window [5, 211): happiness {}, max wait {}, periodic: {} (identical \
         before and after recovery)",
        totals.total_happiness, totals.max_unhappiness, totals.all_periodic
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The first node pair that is not currently a conflict edge — a safe edge
/// to insert (and then toggle) in the dynamic tenant.
fn first_absent_edge(graph: &fhg::graph::Graph) -> (fhg::graph::NodeId, fhg::graph::NodeId) {
    for u in 0..graph.node_count() {
        for v in (u + 1)..graph.node_count() {
            if !graph.has_edge(u, v) {
                return (u, v);
            }
        }
    }
    panic!("complete graph has no absent edge");
}
