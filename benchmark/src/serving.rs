//! `serve-overload` and `serve-deepq`: the serving engine used two ways.
//!
//! Overload drives the arrival/reject path and pays one `job_model`
//! rebuild per dispatch on a queue that never holds more than 64; the
//! deep queue admits everything and spends its time in the linear
//! `BoundedQueue::select` + `Vec::remove`. An indexed queue must win on
//! the second and barely move the first; a memoised `job_model` the
//! reverse.

use tsqr_qcg::ResourceCatalog;
use tsqr_serve::workload::{generate, menu, Request, WorkloadSpec};
use tsqr_serve::{serve, shape_oracle, Disposition, PolicyReport, ServeConfig, ServeOutcome};

use crate::check::check_dispositions;
use crate::harness::{time_median, timed, Layers, Pass, Workload};
use crate::probes::{self, PROCS_PER_SITE};
use crate::trace::{total_s, Tracer};

pub struct Serving {
    catalog: ResourceCatalog,
    cfg: ServeConfig,
    /// The request stream `serve()` will generate for itself from the same
    /// seed: what its records are checked against.
    requests: Vec<Request>,
    /// The verdict of the set-up's under-subscribed reference run.
    light: Result<(), String>,
    first: Option<ServeOutcome>,
}

/// Requests and offered load of the reference run in set-up.
const LIGHT_REQUESTS: usize = 1_000;
const LIGHT_LOAD: f64 = 0.3;

/// The traced pass serves the deep-queue workload's first eighth again:
/// same load, policy and mix, a queue an eighth as deep. What a request
/// costs there is what it costs without the depth.
const SHALLOW_DIVISOR: usize = 8;

impl Serving {
    pub fn setup(cfg: ServeConfig, tr: &Tracer) -> Self {
        let catalog = ResourceCatalog::grid5000();
        let oracle = tr.span("serve.oracle", || {
            shape_oracle(&catalog, cfg.procs_per_site)
        });
        let total_nodes = catalog.clusters.iter().map(|c| c.nodes).sum();
        let spec = WorkloadSpec {
            requests: cfg.requests,
            load: cfg.load,
            seed: cfg.seed,
            tenants: cfg.tenants,
            single_shape: cfg.single_shape,
        };
        let requests = tr.span("serve.generate", || {
            generate(&spec, &oracle.solo_s, &oracle.nodes, total_nodes)
        });
        // The overloaded outcomes can show a lost request but not a wrongly
        // refused one. Offered a third of its capacity, with a queue that
        // can hold every request, the engine must complete them all.
        let light_cfg = ServeConfig {
            load: LIGHT_LOAD,
            requests: LIGHT_REQUESTS,
            queue_capacity: LIGHT_REQUESTS,
            ..cfg.clone()
        };
        let light_out = tr.span("serve.light_reference", || serve(&catalog, &light_cfg));
        let light = check_dispositions(&light_out).and_then(|()| {
            let done = PolicyReport::from_outcome(&light_out).completed;
            if done == LIGHT_REQUESTS {
                Ok(())
            } else {
                Err(format!(
                    "at load {LIGHT_LOAD} only {done} of {LIGHT_REQUESTS} requests completed"
                ))
            }
        });
        Serving {
            catalog,
            cfg,
            requests,
            light,
            first: None,
        }
    }
}

impl Workload for Serving {
    type Out = ServeOutcome;

    fn sample(&self, tr: &Tracer) -> ServeOutcome {
        tr.span("serve.serve", || serve(&self.catalog, &self.cfg))
    }

    fn check(&mut self, out: &ServeOutcome) -> Result<(), String> {
        self.light.clone()?;
        check_dispositions(out)?;
        if out
            .records
            .iter()
            .zip(&self.requests)
            .any(|(rec, req)| rec.request != *req)
        {
            return Err("a record's request differs from the generated stream".into());
        }
        match &self.first {
            None => self.first = Some(out.clone()),
            Some(first) if first == out => {}
            Some(_) => return Err("ServeOutcome changed between samples".into()),
        }
        Ok(())
    }

    /// Simulated requests.
    fn work(&self) -> f64 {
        self.cfg.requests as f64
    }

    fn layers(&self, tr: &Tracer, out: &ServeOutcome, pass: &Pass, layers: &mut Layers) {
        let wall_s = pass.wall_s;
        let (report, report_t) =
            timed(|| tr.span("serve.report", || PolicyReport::from_outcome(out)));
        let spans = tr.spans();
        layers.insert(
            "serve.generate_s",
            total_s(&spans, "serve.generate") * pass.setup_speed,
        );
        layers.insert(
            "serve.oracle_ms",
            1e3 * total_s(&spans, "serve.oracle") * pass.setup_speed,
        );
        layers.insert("serve.serve_s", wall_s);
        layers.insert("serve.report_ms", 1e3 * report_t.s);
        layers.insert(
            "serve.us_per_request",
            1e6 * wall_s / self.cfg.requests as f64,
        );
        layers.insert(
            "serve.us_per_dispatch",
            1e6 * wall_s / report.dispatches as f64,
        );
        layers.insert("serve.queue_select_us_10k", probes::queue_select_us_10k(tr));
        // Where the sample's time goes, from outside. Every dispatch
        // rebuilds a `job_model`: replicas of it, timed alone on each menu
        // shape, weighted by what was dispatched.
        let mut dispatched = vec![0usize; menu().len()];
        for rec in &out.records {
            if matches!(rec.disposition, Disposition::Completed { .. }) {
                dispatched[rec.request.shape] += 1;
            }
        }
        let job_model_s: f64 = menu()
            .into_iter()
            .zip(dispatched)
            .map(|(shape, k)| k as f64 * 1e-6 * probes::job_model_us(tr, shape))
            .sum();
        layers.insert("serve.job_model_s", job_model_s);
        // A queue that admits every request grows with the request count,
        // and a linear scan of it makes a request dearer the more there are.
        let deep_queue_s = if self.cfg.queue_capacity >= self.cfg.requests {
            let shallow = ServeConfig {
                requests: self.cfg.requests / SHALLOW_DIVISOR,
                ..self.cfg.clone()
            };
            let shallow_s = tr.span("serve.shallow_reference", || {
                time_median(5, || {
                    std::hint::black_box(serve(&self.catalog, &shallow));
                })
            });
            (wall_s - shallow_s * SHALLOW_DIVISOR as f64).max(0.0)
        } else {
            0.0
        };
        layers.insert("serve.deep_queue_s", deep_queue_s);
        layers.insert("serve.dispatches", report.dispatches as f64);
        layers.insert("serve.completed", report.completed as f64);
        layers.insert(
            "serve.rejected",
            (report.rejected_queue + report.rejected_infeasible) as f64,
        );
        layers.insert("serve.slo_misses", report.slo_miss as f64);
        layers.insert("serve.busy_intervals", out.busy_intervals.len() as f64);
        layers.insert("serve.sim_horizon_s", report.horizon_s);
        // `job_model` rebuilds a layout, a tree and a prediction per
        // dispatch, on the four-site flagship shape at the most.
        let alloc = probes::grid_allocation(4);
        let (m, n) = (1 << 21, 64);
        let rates = probes::calibrated_rates(n);
        let (predict_us, _) = probes::predict_us_and_candidates_ms(tr, &alloc, m, n, rates);
        layers.insert("core.predict_us", predict_us);
        layers.insert(
            "core.layout_tree_build_us",
            probes::layout_tree_build_us(tr, &alloc, m, n),
        );
        layers.insert(
            "netsim.sharedlinks_cycle_ns",
            probes::sharedlinks_cycle_ns(tr),
        );
        layers.insert("qcg.allocate_us", probes::allocate_us(tr));
        layers.insert("qcg.slotpool_cycle_us", probes::slotpool_cycle_us(tr));
    }

    /// Where a sample's time goes: the two paths the serving workloads
    /// exist to tell apart, and what is left.
    fn attribution(&self, l: &Layers, wall_s: f64) -> Option<String> {
        let row = |name: &str, s: f64, note: &str| {
            format!(
                "    {name:<28} {s:>10.4} s {:>5.1} %  {note}\n",
                100.0 * s / wall_s
            )
        };
        let (job_model_s, deep_queue_s) = (l["serve.job_model_s"], l["serve.deep_queue_s"]);
        let mut text = format!(
            "  attribution of one `serve()` of {} requests (reference-host seconds, share of wall)\n",
            self.cfg.requests
        );
        text += &row(
            "job_model rebuilds",
            job_model_s,
            "serve.job_model_s: replicas timed alone, per dispatched shape",
        );
        text += &row(
            "queue depth",
            deep_queue_s,
            "serve.deep_queue_s: wall - 8 x a run of an eighth of the requests",
        );
        text += &row(
            "arrival, events, the rest",
            wall_s - job_model_s - deep_queue_s,
            "residual",
        );
        Some(text)
    }
}

/// The two configurations; `requests` is the only size knob.
pub fn overload(seed: u64, requests: usize) -> ServeConfig {
    ServeConfig {
        load: 1.5,
        queue_capacity: 64,
        requests,
        seed,
        procs_per_site: PROCS_PER_SITE,
        ..Default::default()
    }
}

pub fn deep_queue(seed: u64, requests: usize) -> ServeConfig {
    ServeConfig {
        policy: tsqr_serve::Policy::Edf,
        load: 4.0,
        queue_capacity: 100_000,
        requests,
        seed,
        procs_per_site: PROCS_PER_SITE,
        ..Default::default()
    }
}
