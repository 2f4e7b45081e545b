//! Golden-file test of the Chrome-trace exporter: a fixed 4-rank program
//! on a fixed 2-cluster grid must serialize byte-identically to the
//! committed golden JSON (`tests/golden/chrome_small.json`).
//!
//! The golden file pins the whole schema documented in
//! `docs/observability.md` — track ids, event names, categories, phase
//! stamping, flow arrows and the virtual-time → microsecond mapping. To
//! regenerate after an intentional schema change, run with `BLESS=1`:
//!
//! ```text
//! BLESS=1 cargo test -p tsqr-gridmpi --test chrome_golden
//! ```

use tsqr_gridmpi::message::Phantom;
use tsqr_gridmpi::{Runtime, Trace};
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

/// Two clusters of two single-process nodes, with a slow WAN between
/// them — the smallest grid that exercises all three link classes' costs.
fn tiny_grid() -> Runtime {
    let specs = (0..2)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: 2,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, 2, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 800.0), 1e9, 2);
    model.inter_cluster[0][1] = LinkParams::from_ms_mbps(8.0, 80.0);
    model.inter_cluster[1][0] = LinkParams::from_ms_mbps(8.0, 80.0);
    Runtime::new(topo, model)
}

/// A deterministic little program touching phases, compute, intra- and
/// inter-cluster messages.
fn traced_run() -> Trace {
    let mut rt = tiny_grid();
    rt.enable_tracing();
    let report = rt.run(|p, _| match p.rank() {
        0 => p.with_phase("demo", |p| {
            p.compute(5_000, None);
            p.send(1, 7, Phantom { bytes: 64 })?;
            p.send(2, 7, Phantom { bytes: 256 })?;
            Ok(())
        }),
        1 => {
            let _: Phantom = p.recv(0, 7)?;
            Ok(())
        }
        2 => p.with_phase("demo", |p| {
            let _: Phantom = p.recv(0, 7)?;
            p.compute(2_000, None);
            Ok(())
        }),
        _ => Ok(()),
    });
    report.trace.expect("tracing was enabled")
}

#[test]
fn chrome_export_matches_golden_file() {
    let json = traced_run().chrome_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chrome_small.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("writing golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists (BLESS=1 to create)");
    assert_eq!(
        json, golden,
        "Chrome-trace output drifted from tests/golden/chrome_small.json; \
         if the schema change is intentional, regenerate with BLESS=1 and \
         update docs/observability.md"
    );
}

#[test]
fn golden_trace_critical_path_tiles_makespan() {
    let trace = traced_run();
    let cp = trace.critical_path();
    assert!((cp.total().secs() - trace.makespan().secs()).abs() < 1e-12);
}
