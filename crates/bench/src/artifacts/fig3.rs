//! Figure 3(a): communication performance of the (simulated) Grid'5000 —
//! latency and throughput between every pair of sites, measured by
//! ping-pong runs on the runtime and compared against the constants the
//! cost model was built from.

use crate::{Artifact, Sweep, Table};
use tsqr_core::experiment::run_ranks;
use tsqr_core::tile::Dims;
use tsqr_gridmpi::message::Phantom;
use tsqr_gridmpi::Runtime;
use tsqr_netsim::grid5000::{self, INTER_LATENCY_MS, INTER_THROUGHPUT_MBPS};

const SITE_NAMES: [&str; 4] = ["orsay", "toulouse", "bordeaux", "sophia"];

/// Measures one-way latency (ms) and throughput (Mb/s) between the first
/// ranks of two sites with 0-byte and 64 MiB ping messages.
fn measure(rt: &Runtime, a: usize, b: usize) -> (f64, f64) {
    let ra = a * 64;
    let rb = if a == b { a * 64 + 2 } else { b * 64 }; // same site: another node
    let big: u64 = 64 << 20;
    let report = run_ranks::<Dims, _, _>(rt, async |p, _| {
        if p.rank() == ra {
            let t0 = p.clock();
            p.send(rb, 1, Phantom { bytes: 0 })?;
            let lat = p.clock() - t0;
            let t1 = p.clock();
            p.send(rb, 2, Phantom { bytes: big })?;
            let xfer = p.clock() - t1;
            Ok(Some((lat.secs(), xfer.secs())))
        } else if p.rank() == rb {
            let _: Phantom = p.recv_async(ra, 1).await?;
            let _: Phantom = p.recv_async(ra, 2).await?;
            Ok(None)
        } else {
            Ok(None)
        }
    });
    let (lat_s, xfer_s) = report.ranks[ra].result.clone().unwrap().expect("pinger measured");
    let latency_ms = lat_s * 1e3;
    let throughput_mbps = (big as f64 * 8.0) / (xfer_s - lat_s) / 1e6;
    (latency_ms, throughput_mbps)
}

pub(super) fn run(_: &Sweep) -> Artifact {
    let rt = Runtime::new(grid5000::topology(4), grid5000::cost_model());
    let mut lat = [[0.0f64; 4]; 4];
    let mut thr = [[0.0f64; 4]; 4];
    for a in 0..4 {
        for b in a..4 {
            (lat[a][b], thr[a][b]) = measure(&rt, a, b);
        }
    }
    // The upper triangle of a site-by-site matrix.
    let triangle = |title: &str, cell: &dyn Fn(usize, usize) -> String| {
        let mut table = Table::new(title, &[&[""], SITE_NAMES.as_slice()].concat());
        for (a, site) in SITE_NAMES.iter().enumerate() {
            let cells = (0..4).map(|b| if b < a { String::new() } else { cell(a, b) });
            table.rows.push([site.to_string()].into_iter().chain(cells).collect());
        }
        table
    };
    let mut artifact = Artifact {
        tables: vec![
            triangle("Fig. 3(a) — latency (ms) measured on the simulated platform", &|a, b| {
                format!("{:.2}", lat[a][b])
            }),
            triangle("Throughput (Mb/s)", &|a, b| format!("{:.0}", thr[a][b])),
        ],
        checks: Vec::new(),
    };

    for a in 0..4 {
        for b in a..4 {
            let (lref, tref) = if a == b {
                (0.07, 890.0) // intra-cluster reference (site-independent)
            } else {
                (INTER_LATENCY_MS[a][b], INTER_THROUGHPUT_MBPS[a][b])
            };
            artifact.check(
                format!("{} <-> {}", SITE_NAMES[a], SITE_NAMES[b]),
                (lat[a][b] / lref - 1.0).abs() < 0.02 && (thr[a][b] / tref - 1.0).abs() < 0.02,
                format!(
                    "lat {:.2}/{:.2} ms, thr {:.0}/{:.0} Mb/s",
                    lat[a][b], lref, thr[a][b], tref
                ),
            );
        }
    }
    artifact
}
