//! The measuring loop shared by every workload: timed set-up, one
//! discarded warm-up sample, a closed loop of one client for the timed
//! samples, a correctness check on every output, and — in the traced
//! pass — the layer probes.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::{WorkloadSpec, LAYERS, PER_LAYER};
use crate::stats::{fast_decile, median, quartiles, spread};
use crate::trace::{layer_spans, Tracer};

/// Timed set-ups per untraced run: at least two, and more of a short
/// one, until this many seconds or this many repeats have gone into them;
/// `setup_s` is their fast decile.
const SETUP_MIN_REPS: usize = 2;
const SETUP_MAX_REPS: usize = 200;
const SETUP_SECONDS: f64 = 1.5;

/// What the command line asked of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Keep sampling until this much time has gone by …
    pub seconds: f64,
    /// … and at least this many timed samples are in.
    pub min_samples: usize,
    pub trace: bool,
    /// Reduced problem sizes, one sample: a smoke test, not a measurement.
    pub quick: bool,
}

/// What the traced pass knows when the layer metrics are filled in.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// The run's `wall_ref_s`: fast decile of the untraced samples.
    pub wall_s: f64,
    /// Reference-host seconds per raw second during set-up and during the
    /// traced samples: what scales a raw span to the reference host.
    pub setup_speed: f64,
    pub sample_speed: f64,
}

/// Per-layer metric values of one traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One of the six workloads. Built by its set-up (which the harness
/// times), then sampled in a closed loop.
pub trait Workload {
    type Out;
    /// One timed sample: the program under test, driven through its
    /// public entry points, spans recorded on `tr` when it is on.
    fn sample(&self, tr: &Tracer) -> Self::Out;
    /// Is this output one a user could trust?
    fn check(&mut self, out: &Self::Out) -> Result<(), String>;
    /// Units of work in one sample (see [`WorkloadSpec::work_unit`]).
    fn work(&self) -> f64;
    /// Traced pass only: run this workload's layer probes and fill in its
    /// per-layer metrics.
    fn layers(&self, tr: &Tracer, out: &Self::Out, pass: &Pass, layers: &mut Layers);
    /// Traced pass only: anything to print under the layer table.
    fn attribution(&self, _layers: &Layers, _wall_s: f64) -> Option<String> {
        None
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// IQR/median of the timed samples.
    pub sample_spread: f64,
    /// Beside the reported fast deciles: what the clock read before any
    /// scaling (`raw_*`), the scale factors, and the scaled median — so
    /// that every record can be read in plain host seconds too.
    pub readings: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// Seconds the calibration kernel takes on the reference host. Every
/// reported time is scaled to that host: `raw × CALIB_REF_S / calibration`,
/// the calibration being the kernel timed right before and right after.
///
/// A shared sandbox runs the same instructions up to twice as slowly from
/// one ten-second window to the next (a busy sibling hyperthread, a
/// throttled clock), and process CPU time slows with it. That part of the
/// noise is close to multiplicative, so dividing by a fixed piece of
/// arithmetic timed next to the sample takes it out. What is left —
/// bursts that hit cache-sensitive code harder than this kernel — is what
/// [`fast_decile`] is for. README.md has the measurements.
pub const CALIB_REF_S: f64 = 1e-3;

/// The calibration kernel: a fixed dependent chain of integer and
/// floating-point arithmetic over a 16 KB table. Must never change, or
/// every number before and after the change stops being comparable.
fn calibration_kernel() -> f64 {
    let t = Instant::now();
    let mut table = [0u64; 2048];
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..600_000 {
        h = h
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (h >> 53) as usize & 2047;
        table[k] = table[k].wrapping_add(h);
        acc = acc * 0.999_999 + (h >> 11) as f64 * 1e-16;
    }
    std::hint::black_box((table, acc));
    t.elapsed().as_secs_f64()
}

/// Seconds the calibration kernel takes right now: the median of three,
/// on this one thread. The rank-thread workloads are scaled by the same
/// single-threaded reading: calibrating on every core at once steadied
/// them no better (README.md has both spreads).
fn calibrate() -> f64 {
    median(&[
        calibration_kernel(),
        calibration_kernel(),
        calibration_kernel(),
    ])
}

/// Cores of this host: what a rank-thread run can use at most.
pub fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Host seconds as the clock read them.
    pub raw_s: f64,
    /// The same, scaled to the reference host.
    pub s: f64,
}

impl Timing {
    /// Reference-host seconds per raw second while this region ran.
    pub fn speed(&self) -> f64 {
        self.s / self.raw_s
    }
}

/// Times `f`, bracketed by two calibrations.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let before = calibrate();
    let t = Instant::now();
    let out = f();
    let raw_s = t.elapsed().as_secs_f64();
    let after = calibrate();
    (
        out,
        Timing {
            raw_s,
            s: raw_s * CALIB_REF_S / (0.5 * (before + after)),
        },
    )
}

/// Median reference-host seconds of `reps` calls of `f`, each calibrated.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1.s).collect();
    median(&times)
}

/// Reference-host seconds per call of `f`, over `reps` back-to-back calls
/// — for operations too short to time one by one.
pub fn time_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let ((), t) = timed(|| {
        for _ in 0..reps {
            f();
        }
    });
    t.s / reps as f64
}

/// Peak resident set, user and system CPU seconds of this process.
fn proc_usage() -> (f64, f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    // Fields 14 and 15 after the parenthesised command name, in clock
    // ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    let (user, sys) = (
        ticks.first().copied().unwrap_or(0.0),
        ticks.get(1).copied().unwrap_or(0.0),
    );
    (peak_kb / 1024.0, user / 100.0, sys / 100.0)
}

/// Runs one workload to completion and prints its table.
pub fn run<W: Workload>(
    spec: &WorkloadSpec,
    opts: &Options,
    setup: impl Fn(&Tracer) -> W,
) -> RunResult {
    let tracer = Tracer::new(opts.trace);
    let untraced = Tracer::new(false);
    let secs = |ts: &[Timing]| ts.iter().map(|t| t.s).collect::<Vec<f64>>();
    let raw_secs = |ts: &[Timing]| ts.iter().map(|t| t.raw_s).collect::<Vec<f64>>();

    // Set-up. The traced pass sets up once, under spans; the untraced pass
    // repeats it so `setup_s` rests on more than one reading.
    let once = opts.trace || opts.quick;
    let mut setups: Vec<Timing> = Vec::new();
    let setup_started = Instant::now();
    let mut w = loop {
        let (built, t) = timed(|| tracer.span("bench.setup", || setup(&tracer)));
        setups.push(t);
        let spent = setup_started.elapsed().as_secs_f64();
        if once
            || setups.len() >= SETUP_MAX_REPS
            || (setups.len() >= SETUP_MIN_REPS && spent >= SETUP_SECONDS)
        {
            break built;
        }
    };
    let setup_s = fast_decile(&secs(&setups));

    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut checked = |w: &mut W, out: &W::Out, what: &str| {
        attempted += 1;
        if let Err(why) = tracer.span("bench.check", || w.check(out)) {
            failed += 1;
            eprintln!("FAILED {} {what}: {why}", spec.name);
        }
    };

    // Warm-up: discarded as a time, still checked as an output.
    let (mut last, cold) = timed(|| w.sample(&untraced));
    checked(&mut w, &last, "warm-up sample");

    // The closed loop. The traced pass alternates traced and untraced
    // samples so the two medians come from the same minutes of machine.
    let (mut plain, mut traced): (Vec<Timing>, Vec<Timing>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0usize;
    while plain.len() < opts.min_samples || started.elapsed().as_secs_f64() < opts.seconds {
        let with_spans = opts.trace && i % 2 == 1;
        tracer.set_sample(with_spans.then_some(i));
        let (out, t) = timed(|| {
            if with_spans {
                tracer.span("bench.sample", || w.sample(&tracer))
            } else {
                w.sample(&untraced)
            }
        });
        last = out;
        (if with_spans { &mut traced } else { &mut plain }).push(t);
        tracer.set_sample(None);
        checked(&mut w, &last, &format!("sample {i}"));
        i += 1;
    }

    let walls = secs(&plain);
    let wall_s = fast_decile(&walls);
    let (q1, q3) = quartiles(&walls);
    let (lo, hi) = walls
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let work_per_s = w.work() / wall_s;

    println!(
        "workload {}  seed {}  trace {}",
        spec.name,
        opts.seed,
        u8::from(opts.trace)
    );
    println!("  ({})", spec.why);
    println!("  times are reference-host seconds (host seconds x {CALIB_REF_S} s / the calibration kernel's time next to them)");
    println!("  and, over the samples of a run, their fast decile (10th percentile); raw_* = as the clock read");
    let speed = |ts: &[Timing]| median(&ts.iter().map(Timing::speed).collect::<Vec<f64>>());
    let readings = vec![
        ("raw_wall_median_s", median(&raw_secs(&plain))),
        ("raw_wall_p10_s", fast_decile(&raw_secs(&plain))),
        ("raw_setup_median_s", median(&raw_secs(&setups))),
        ("wall_ref_median_s", median(&walls)),
        ("host_speed", speed(&plain)),
        ("setup_host_speed", speed(&setups)),
    ];
    println!(
        "  {:<34} {:>14.6} s   n={} min={lo:.6} median={:.6} max={hi:.6} iqr={:.6}",
        "wall_ref_s",
        wall_s,
        plain.len(),
        median(&walls),
        q3 - q1,
    );
    println!(
        "  {:<34} {:>14.6} 1/s ({} per reference-host second)",
        "work_per_ref_s", work_per_s, spec.work_unit
    );
    println!(
        "  {:<34} {:>14.6} {}/s (the same number under its own name)",
        spec.throughput_name, work_per_s, spec.work_unit
    );
    println!(
        "  {:<34} {:>14.6} s   n={}",
        "setup_s",
        setup_s,
        setups.len(),
    );
    for (name, value) in &readings {
        println!("  {name:<34} {value:>14.6}");
    }
    println!(
        "  {:<34} {:>14.6}     {failed} of {attempted} outputs failed their check",
        "error_frac",
        failed as f64 / attempted as f64
    );
    if plain.len() < 5 {
        println!("  fewer than 5 timed samples: a smoke run, its medians are not measurements");
    }

    let metrics = if opts.trace {
        let pass = Pass {
            wall_s,
            setup_speed: speed(&setups),
            sample_speed: if traced.is_empty() {
                1.0
            } else {
                speed(&traced)
            },
        };
        let mut layers = Layers::new();
        w.layers(&tracer, &last, &pass, &mut layers);
        let (rss_mb, user_s, sys_s) = proc_usage();
        layers.insert("proc.peak_rss_mb", rss_mb);
        layers.insert("proc.cold_first_sample_s", cold.s);
        layers.insert("proc.user_s", user_s);
        layers.insert("proc.sys_s", sys_s);
        layers.insert("proc.host_speed", speed(&plain));
        layers.insert("proc.raw_wall_s", median(&raw_secs(&plain)));
        layers.insert(
            "trace.overhead_frac",
            if traced.is_empty() {
                0.0
            } else {
                fast_decile(&secs(&traced)) / wall_s - 1.0
            },
        );
        let spans = tracer.spans();
        layers.insert("trace.spans", spans.len() as f64);
        for (layer, counter) in LAYERS {
            layers.insert(counter, layer_spans(&spans, layer) as f64);
        }
        println!("  per-layer (reference-host time of isolated single-threaded calls; counts exact; sim_s simulated):");
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            if v != 0.0 && v.abs() < 1e-3 {
                println!("  {name:<34} {v:>14.3e} {unit}");
            } else {
                println!("  {name:<34} {v:>14.6} {unit}");
            }
        }
        let idle: Vec<&str> = LAYERS
            .iter()
            .map(|(l, _)| *l)
            .filter(|l| layer_spans(&spans, l) == 0)
            .collect();
        println!(
            "  layers with no span on this workload (idle): {}",
            if idle.is_empty() {
                "none".into()
            } else {
                idle.join(", ")
            }
        );
        if let Some(text) = w.attribution(&layers, wall_s) {
            println!("{text}");
        }
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, layers.get(n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        vec![
            ("wall_ref_s", wall_s, "s"),
            ("work_per_ref_s", work_per_s, "1/s"),
            ("setup_s", setup_s, "s"),
        ]
    };

    RunResult {
        attempted,
        failed,
        metrics,
        sample_spread: spread(&walls),
        readings,
        tracer,
    }
}
