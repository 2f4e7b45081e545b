//! Figure 3(a): communication performance of the (simulated) Grid'5000 —
//! latency and throughput between every pair of sites, measured by
//! ping-pong runs on the runtime and compared against the constants the
//! cost model was built from.

use crate::{ShapeCheck, Sweep};
use tsqr_gridmpi::Runtime;
use tsqr_netsim::grid5000::{self, INTER_LATENCY_MS, INTER_THROUGHPUT_MBPS};
use tsqr_gridmpi::message::Phantom;

const SITE_NAMES: [&str; 4] = ["orsay", "toulouse", "bordeaux", "sophia"];

/// Measures one-way latency (ms) and throughput (Mb/s) between the first
/// ranks of two sites with 0-byte and 64 MiB ping messages.
fn measure(rt: &Runtime, a: usize, b: usize) -> (f64, f64) {
    let ra = a * 64;
    let rb = if a == b { a * 64 + 2 } else { b * 64 }; // same site: another node
    let big: u64 = 64 << 20;
    let report = rt.run(move |p, _| {
        if p.rank() == ra {
            let t0 = p.clock();
            p.send(rb, 1, Phantom { bytes: 0 })?;
            let lat = p.clock() - t0;
            let t1 = p.clock();
            p.send(rb, 2, Phantom { bytes: big })?;
            let xfer = p.clock() - t1;
            Ok(Some((lat.secs(), xfer.secs())))
        } else if p.rank() == rb {
            let _: Phantom = p.recv(ra, 1)?;
            let _: Phantom = p.recv(ra, 2)?;
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

pub(super) fn run(_: &mut Sweep, checks: &mut ShapeCheck) {
    let rt = Runtime::new(grid5000::topology(4), grid5000::cost_model());

    println!("# Fig. 3(a) — measured on the simulated platform");
    println!("# Latency (ms)");
    print!("# {:>10}", "");
    for name in SITE_NAMES {
        print!(" {name:>10}");
    }
    println!();
    let mut lat = [[0.0f64; 4]; 4];
    let mut thr = [[0.0f64; 4]; 4];
    for a in 0..4 {
        print!("  {:>10}", SITE_NAMES[a]);
        for b in 0..4 {
            if b < a {
                print!(" {:>10}", "");
                continue;
            }
            let (l, t) = measure(&rt, a, b);
            lat[a][b] = l;
            thr[a][b] = t;
            print!(" {l:>10.2}");
        }
        println!();
    }
    println!("# Throughput (Mb/s)");
    for (a, row) in thr.iter().enumerate() {
        print!("  {:>10}", SITE_NAMES[a]);
        for (b, &t) in row.iter().enumerate() {
            if b < a {
                print!(" {:>10}", "");
            } else {
                print!(" {:>10.0}", t);
            }
        }
        println!();
    }

    for a in 0..4 {
        for b in a..4 {
            let (lref, tref) = if a == b {
                (0.07, 890.0) // intra-cluster reference (site-independent)
            } else {
                (INTER_LATENCY_MS[a][b], INTER_THROUGHPUT_MBPS[a][b])
            };
            checks.check(
                &format!("{} <-> {}", SITE_NAMES[a], SITE_NAMES[b]),
                (lat[a][b] / lref - 1.0).abs() < 0.02 && (thr[a][b] / tref - 1.0).abs() < 0.02,
                format!(
                    "lat {:.2}/{:.2} ms, thr {:.0}/{:.0} Mb/s",
                    lat[a][b], lref, thr[a][b], tref
                ),
            );
        }
    }
}
