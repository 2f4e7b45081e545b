//! Seeded open-loop request generator: the traffic the serving layer is
//! asked to absorb.
//!
//! A request is one tall-and-skinny factorization job: a row count, a
//! column count, a site affinity (how many grid sites the job's
//! [`tsqr_qcg::JobProfile`] asks for), a tenant, an arrival instant and
//! a deadline. Arrivals are an **open-loop** Poisson-like process —
//! requests keep coming at the configured rate whether or not the grid
//! keeps up, which is what exposes the latency/throughput knee — drawn
//! from the workspace's shared [`tsqr_netsim::rng::SplitMix64`] stream
//! (everything is a pure function of the seed; no wall clock anywhere).
//!
//! The arrival rate is calibrated in *offered node-seconds*: `load = 1`
//! means the stream asks, on average, for exactly as many node-seconds
//! per virtual second as the grid has nodes, so `load < 1` is
//! under-subscription and `load > 1` drives the queue into saturation.
//! Calibration needs a per-shape solo service-time oracle, which the
//! engine derives from `tsqr_core::tune::predict_makespan` — the same
//! closed form the autotuner trusts.

use tsqr_netsim::rng::SplitMix64;
use tsqr_netsim::VirtualTime;

/// One class of job shape the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeClass {
    /// Global rows of the tall-and-skinny matrix.
    pub rows: u64,
    /// Columns (the paper's panels are 32–64 wide).
    pub cols: usize,
    /// Site affinity: grid sites (QCG groups) the job wants.
    pub sites: usize,
}

/// The serving menu: paper-flavored shapes (Figs. 4–8 scaled to serving
/// granularity), from a single-site panel to the four-site flagship.
/// Index order is load-bearing — requests record their menu index and
/// the bench baselines pin per-shape statistics.
pub fn menu() -> Vec<ShapeClass> {
    vec![
        ShapeClass { rows: 1 << 19, cols: 64, sites: 1 },
        ShapeClass { rows: 1 << 20, cols: 32, sites: 1 },
        ShapeClass { rows: 1 << 20, cols: 64, sites: 2 },
        ShapeClass { rows: 1 << 21, cols: 64, sites: 4 },
    ]
}

/// One factorization request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Dense id in arrival order (also the deterministic tiebreak).
    pub id: usize,
    /// Owning tenant, `0..spec.tenants`.
    pub tenant: usize,
    /// Menu index of the shape ([`menu`]).
    pub shape: usize,
    /// Rows of this request's matrix.
    pub rows: u64,
    /// Columns of this request's matrix.
    pub cols: usize,
    /// Site affinity (QCG groups requested).
    pub sites: usize,
    /// Arrival instant.
    pub arrival: VirtualTime,
    /// Completion deadline (the SLO); missing it is counted, not fatal.
    pub deadline: VirtualTime,
}

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of requests to emit.
    pub requests: usize,
    /// Offered load as a fraction of grid node capacity (1.0 = the
    /// stream asks for every node-second the grid has).
    pub load: f64,
    /// PRNG seed; same seed → byte-identical request stream.
    pub seed: u64,
    /// Tenant count for the fair-share policy.
    pub tenants: usize,
    /// When `Some(i)`, every request uses menu shape `i` — the
    /// same-shape burst mode that showcases batching.
    pub single_shape: Option<usize>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { requests: 200, load: 0.8, seed: 42, tenants: 4, single_shape: None }
    }
}

/// Deadline slack: a request's SLO is `arrival + slack × solo_service`,
/// slack uniform in `[SLACK_MIN, SLACK_MIN + SLACK_SPAN]`. Below ~2 the
/// SLO is unmeetable the moment anything queues; the span keeps EDF from
/// degenerating into FIFO.
const SLACK_MIN: f64 = 2.0;
/// See [`SLACK_MIN`].
const SLACK_SPAN: f64 = 4.0;

/// Mean inter-arrival gap, in seconds, of the Poisson stream that offers
/// `spec.load`: the mean node-seconds one request asks for (uniform over
/// the menu, or the pinned shape) over the node-seconds the grid has per
/// second at that load. [`generate`] needs it positive and finite; a load
/// near `f64::MAX` overflows the product and leaves 0.
pub(crate) fn mean_gap_s(
    spec: &WorkloadSpec,
    solo_s: &[f64],
    nodes: &[usize],
    total_nodes: usize,
) -> f64 {
    let demand = |i: usize| nodes[i] as f64 * solo_s[i];
    let mean_demand = match spec.single_shape {
        Some(i) => demand(i),
        None => (0..solo_s.len()).map(demand).sum::<f64>() / solo_s.len() as f64,
    };
    mean_demand / (spec.load * total_nodes as f64)
}

/// Generates the request stream.
///
/// `solo_s[i]` is the uncontended service time of menu shape `i` in
/// seconds and `nodes[i]` the nodes its allocation books — together they
/// convert `spec.load` into an arrival rate. Draw order per request is
/// fixed (gap, shape, tenant, slack), so adding a field later cannot
/// silently shift every stream.
///
/// # Panics
/// Panics on empty/zero-length oracle tables, a non-positive load, or a
/// `single_shape` index outside the menu.
pub fn generate(
    spec: &WorkloadSpec,
    solo_s: &[f64],
    nodes: &[usize],
    total_nodes: usize,
) -> Vec<Request> {
    assert_eq!(solo_s.len(), nodes.len(), "oracle tables must align");
    assert!(!solo_s.is_empty(), "empty shape menu");
    assert!(spec.load > 0.0 && spec.load.is_finite(), "load must be positive");
    assert!(spec.tenants > 0, "need at least one tenant");
    let shapes = menu();
    assert_eq!(shapes.len(), solo_s.len(), "oracle must cover the menu");
    if let Some(i) = spec.single_shape {
        assert!(i < shapes.len(), "single_shape index {i} outside the menu");
    }

    let gap_s = mean_gap_s(spec, solo_s, nodes, total_nodes);

    let mut rng = SplitMix64::new(spec.seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests {
        t += rng.next_exp(gap_s);
        let shape_draw = rng.next_below(shapes.len() as u64) as usize;
        let shape = spec.single_shape.unwrap_or(shape_draw);
        let tenant = rng.next_below(spec.tenants as u64) as usize;
        let slack = SLACK_MIN + SLACK_SPAN * rng.next_unit();
        let s = shapes[shape];
        out.push(Request {
            id,
            tenant,
            shape,
            rows: s.rows,
            cols: s.cols,
            sites: s.sites,
            arrival: VirtualTime::from_secs(t),
            deadline: VirtualTime::from_secs(t + slack * solo_s[shape]),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> (Vec<f64>, Vec<usize>) {
        (vec![1.0, 1.5, 2.0, 4.0], vec![32, 32, 64, 128])
    }

    #[test]
    fn same_seed_reproduces_byte_identical_streams() {
        let (solo, nodes) = oracle();
        let spec = WorkloadSpec::default();
        let a = generate(&spec, &solo, &nodes, 541);
        let b = generate(&spec, &solo, &nodes, 541);
        assert_eq!(a, b);
        let c = generate(&WorkloadSpec { seed: 43, ..spec }, &solo, &nodes, 541);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_increase_and_deadlines_trail_arrivals() {
        let (solo, nodes) = oracle();
        let reqs = generate(&WorkloadSpec::default(), &solo, &nodes, 541);
        assert_eq!(reqs.len(), 200);
        for w in reqs.windows(2) {
            assert!(w[1].arrival > w[0].arrival, "arrivals must be strictly increasing");
        }
        for r in &reqs {
            assert!(r.deadline.secs() >= r.arrival.secs() + SLACK_MIN * solo[r.shape]);
            assert!(r.tenant < 4);
            assert_eq!(menu()[r.shape].rows, r.rows);
        }
    }

    #[test]
    fn load_scales_arrival_rate() {
        let (solo, nodes) = oracle();
        let slow = generate(&WorkloadSpec { load: 0.5, ..Default::default() }, &solo, &nodes, 541);
        let fast = generate(&WorkloadSpec { load: 2.0, ..Default::default() }, &solo, &nodes, 541);
        // 4× the load compresses the same 200 arrivals to ~1/4 the span.
        let span = |r: &[Request]| r.last().unwrap().arrival.secs();
        let ratio = span(&slow) / span(&fast);
        assert!((2.0..8.0).contains(&ratio), "expected ~4x compression, got {ratio}");
    }

    #[test]
    fn single_shape_pins_every_request() {
        let (solo, nodes) = oracle();
        let spec = WorkloadSpec { single_shape: Some(2), ..Default::default() };
        let reqs = generate(&spec, &solo, &nodes, 541);
        assert!(reqs.iter().all(|r| r.shape == 2 && r.sites == menu()[2].sites));
    }
}
