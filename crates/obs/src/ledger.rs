//! The append-only experiment ledger (`grid-tsqr-ledger/v1`).
//!
//! Every figure, tune, faults, and bench-gate run appends one line of
//! JSON to a JSONL file (by convention `ledger/runs.jsonl`, selected via
//! the [`LEDGER_ENV`] environment variable). A line is a complete
//! [`LedgerEntry`]: scenario identity, topology and tree shape, the
//! headline makespan/Gflop/s, per-phase Eq. (1) ledgers with the fitted
//! model's per-phase prediction, the critical-path split, the fitted
//! (α, β, γ) coefficients, and an environment fingerprint.
//!
//! Invariants enforced by [`read_ledger`]:
//!
//! * every line carries `schema == `[`LEDGER_SCHEMA`];
//! * `seq` is strictly increasing — the ledger is append-only, and
//!   rewriting history (dropping or reordering lines) is detectable.
//!
//! Entries deliberately carry **no wall-clock timestamp**: the
//! simulation is deterministic virtual time, the repository's commlint
//! forbids wall clocks, and a timestamp would make ledger lines
//! non-reproducible. Ordering is the `seq` number; provenance is the
//! `source` string plus the environment fingerprint.
//!
//! Per-phase rows are aggregated over ranks (a 256-rank run would
//! otherwise cost ~80 KB per line); per-rank detail belongs to the
//! folded-stack profiles (`tsqr-gridmpi::profile`), which are artifacts,
//! not ledger payload.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;

/// Schema tag carried by every ledger line.
pub const LEDGER_SCHEMA: &str = "grid-tsqr-ledger/v1";

/// Environment variable naming the ledger file. Unset or empty disables
/// ledger writes.
pub const LEDGER_ENV: &str = "GRID_TSQR_LEDGER";

/// Guard against `observed ≈ 0` denominators in relative residuals.
const RESIDUAL_FLOOR: f64 = 1e-12;

/// One phase's Eq. (1) ledger, aggregated over ranks, plus the fitted
/// model's prediction for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label (e.g. `leaf-qr`, `tree-reduce`, `(unphased)`).
    pub name: String,
    /// Messages sent, per link-class bucket (node / cluster / WAN).
    pub msgs: [u64; 3],
    /// Payload bytes sent, per link-class bucket.
    pub bytes: [u64; 3],
    /// Flops charged.
    pub flops: u64,
    /// Virtual seconds spent in blocking sends (all link classes).
    pub send_s: f64,
    /// Virtual seconds spent computing.
    pub compute_s: f64,
    /// Virtual seconds blocked waiting in receives.
    pub wait_s: f64,
    /// The fitted Eq. (1) model's prediction for this phase's busy time.
    pub predicted_s: f64,
}

impl PhaseRow {
    /// Observed busy seconds: send + compute (wait is idle time and is
    /// not part of what Eq. (1) prices).
    pub fn observed_s(&self) -> f64 {
        self.send_s + self.compute_s
    }

    /// Relative residual of the model on this phase:
    /// `|predicted − observed| / max(observed, 1e-12)`.
    pub fn residual(&self) -> f64 {
        let obs = self.observed_s();
        (self.predicted_s - obs).abs() / obs.abs().max(RESIDUAL_FLOOR)
    }
}

/// Fitted Eq. (1) coefficients recorded with a run; all zero (the
/// default) for a run with nothing to fit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelCoeffs {
    /// Per-message latency cost (seconds per message), the β term.
    pub beta_s: f64,
    /// Per-word bandwidth cost (seconds per 8-byte word), the α term.
    pub alpha_s_per_word: f64,
    /// Per-flop compute cost (seconds per flop), the γ term.
    pub gamma_s_per_flop: f64,
    /// Overall relative residual of the fit across samples.
    pub rel_residual: f64,
}

/// Reproducibility fingerprint of the environment that produced a run.
///
/// Deliberately built only from compile-time / static data — no wall
/// clock, no hostname — so identical builds produce identical entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Workspace crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `debug` or `release`.
    pub profile: String,
}

impl EnvFingerprint {
    /// The fingerprint of the running binary.
    pub fn current() -> EnvFingerprint {
        EnvFingerprint {
            version: env!("CARGO_PKG_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        }
    }
}

/// One ledger line: a complete record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Strictly-increasing sequence number within the ledger file.
    /// Assigned by [`append_entry`]; the value given to it is ignored.
    pub seq: u64,
    /// What produced the entry: `figure`, `bench_check`, `tune`,
    /// `faults`, …
    pub source: String,
    /// Scenario id, e.g. `fig5/tsqr` or `faults/wan-10x`.
    pub scenario: String,
    /// Number of grid sites (clusters).
    pub sites: usize,
    /// Total ranks.
    pub procs: usize,
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Reduction-tree shape label (e.g. `TSQR64`, `binary`, `scalapack`).
    pub tree: String,
    /// Virtual makespan in seconds.
    pub makespan_s: f64,
    /// Sustained Gflop/s over the makespan.
    pub gflops: f64,
    /// Total messages.
    pub msgs: u64,
    /// Messages that crossed a wide-area link.
    pub wan_msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Compute seconds on the critical path.
    pub cp_compute_s: f64,
    /// Send seconds on the critical path.
    pub cp_send_s: f64,
    /// WAN messages on the critical path.
    pub cp_wan_msgs: u64,
    /// Total receive-wait seconds across ranks.
    pub wait_s: f64,
    /// Per-phase Eq. (1) ledgers with model predictions.
    pub phases: Vec<PhaseRow>,
    /// Fitted model coefficients.
    pub fit: ModelCoeffs,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
}

fn link3(v: &[u64; 3]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

/// Serializes an entry as one ledger line (without trailing newline).
pub fn entry_to_json(e: &LedgerEntry) -> String {
    let phases: Vec<Json> = e
        .phases
        .iter()
        .map(|p| {
            obj(vec![
                ("name", Json::Str(p.name.clone())),
                ("msgs", link3(&p.msgs)),
                ("bytes", link3(&p.bytes)),
                ("flops", Json::Num(p.flops as f64)),
                ("send_s", Json::Num(p.send_s)),
                ("compute_s", Json::Num(p.compute_s)),
                ("wait_s", Json::Num(p.wait_s)),
                ("predicted_s", Json::Num(p.predicted_s)),
            ])
        })
        .collect();
    let fit = obj(vec![
        ("beta_s", Json::Num(e.fit.beta_s)),
        ("alpha_s_per_word", Json::Num(e.fit.alpha_s_per_word)),
        ("gamma_s_per_flop", Json::Num(e.fit.gamma_s_per_flop)),
        ("rel_residual", Json::Num(e.fit.rel_residual)),
    ]);
    let env = obj(vec![
        ("version", Json::Str(e.env.version.clone())),
        ("os", Json::Str(e.env.os.clone())),
        ("arch", Json::Str(e.env.arch.clone())),
        ("profile", Json::Str(e.env.profile.clone())),
    ]);
    obj(vec![
        ("schema", Json::Str(LEDGER_SCHEMA.to_string())),
        ("seq", Json::Num(e.seq as f64)),
        ("source", Json::Str(e.source.clone())),
        ("scenario", Json::Str(e.scenario.clone())),
        ("sites", Json::Num(e.sites as f64)),
        ("procs", Json::Num(e.procs as f64)),
        ("m", Json::Num(e.m as f64)),
        ("n", Json::Num(e.n as f64)),
        ("tree", Json::Str(e.tree.clone())),
        ("makespan_s", Json::Num(e.makespan_s)),
        ("gflops", Json::Num(e.gflops)),
        ("msgs", Json::Num(e.msgs as f64)),
        ("wan_msgs", Json::Num(e.wan_msgs as f64)),
        ("bytes", Json::Num(e.bytes as f64)),
        ("cp_compute_s", Json::Num(e.cp_compute_s)),
        ("cp_send_s", Json::Num(e.cp_send_s)),
        ("cp_wan_msgs", Json::Num(e.cp_wan_msgs as f64)),
        ("wait_s", Json::Num(e.wait_s)),
        ("phases", Json::Arr(phases)),
        ("fit", fit),
        ("env", env),
    ])
    .render()
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?.as_num().ok_or_else(|| format!("field {key:?} is not a number"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    let n = f64_field(v, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("field {key:?} is not a non-negative integer ({n})"));
    }
    Ok(n as u64)
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

fn link3_field(v: &Json, key: &str) -> Result<[u64; 3], String> {
    let arr = field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))?;
    if arr.len() != 3 {
        return Err(format!("field {key:?} must have 3 link-class buckets"));
    }
    let mut out = [0u64; 3];
    for (i, x) in arr.iter().enumerate() {
        let n = x.as_num().ok_or_else(|| format!("field {key:?}[{i}] is not a number"))?;
        out[i] = n as u64;
    }
    Ok(out)
}

/// Parses one ledger line.
pub fn parse_entry(line: &str) -> Result<LedgerEntry, String> {
    let v = Json::parse(line)?;
    let schema = str_field(&v, "schema")?;
    if schema != LEDGER_SCHEMA {
        return Err(format!("unsupported ledger schema {schema:?} (want {LEDGER_SCHEMA:?})"));
    }
    let phases = field(&v, "phases")?
        .as_arr()
        .ok_or("field \"phases\" is not an array")?
        .iter()
        .map(|p| {
            Ok(PhaseRow {
                name: str_field(p, "name")?,
                msgs: link3_field(p, "msgs")?,
                bytes: link3_field(p, "bytes")?,
                flops: u64_field(p, "flops")?,
                send_s: f64_field(p, "send_s")?,
                compute_s: f64_field(p, "compute_s")?,
                wait_s: f64_field(p, "wait_s")?,
                predicted_s: f64_field(p, "predicted_s")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let fit = field(&v, "fit")?;
    let env = field(&v, "env")?;
    Ok(LedgerEntry {
        seq: u64_field(&v, "seq")?,
        source: str_field(&v, "source")?,
        scenario: str_field(&v, "scenario")?,
        sites: u64_field(&v, "sites")? as usize,
        procs: u64_field(&v, "procs")? as usize,
        m: u64_field(&v, "m")? as usize,
        n: u64_field(&v, "n")? as usize,
        tree: str_field(&v, "tree")?,
        makespan_s: f64_field(&v, "makespan_s")?,
        gflops: f64_field(&v, "gflops")?,
        msgs: u64_field(&v, "msgs")?,
        wan_msgs: u64_field(&v, "wan_msgs")?,
        bytes: u64_field(&v, "bytes")?,
        cp_compute_s: f64_field(&v, "cp_compute_s")?,
        cp_send_s: f64_field(&v, "cp_send_s")?,
        cp_wan_msgs: u64_field(&v, "cp_wan_msgs")?,
        wait_s: f64_field(&v, "wait_s")?,
        phases,
        fit: ModelCoeffs {
            beta_s: f64_field(fit, "beta_s")?,
            alpha_s_per_word: f64_field(fit, "alpha_s_per_word")?,
            gamma_s_per_flop: f64_field(fit, "gamma_s_per_flop")?,
            rel_residual: f64_field(fit, "rel_residual")?,
        },
        env: EnvFingerprint {
            version: str_field(env, "version")?,
            os: str_field(env, "os")?,
            arch: str_field(env, "arch")?,
            profile: str_field(env, "profile")?,
        },
    })
}

/// Reads and validates a ledger file: every line must parse, carry the
/// supported schema, and have a strictly larger `seq` than the line
/// before it.
pub fn read_ledger(path: &Path) -> Result<Vec<LedgerEntry>, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    let mut last_seq = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e =
            parse_entry(line).map_err(|err| format!("{}:{}: {err}", path.display(), i + 1))?;
        if e.seq <= last_seq && !entries.is_empty() {
            return Err(format!(
                "{}:{}: seq {} does not increase (previous {}): ledger must be append-only",
                path.display(),
                i + 1,
                e.seq,
                last_seq
            ));
        }
        last_seq = e.seq;
        entries.push(e);
    }
    Ok(entries)
}

/// Appends `entry` to the ledger at `path`, assigning the next sequence
/// number (1 for a fresh ledger). Creates the parent directory if
/// missing. Returns the assigned `seq`.
pub fn append_entry(path: &Path, mut entry: LedgerEntry) -> Result<u64, String> {
    let next_seq = if path.exists() {
        read_ledger(path)?.last().map(|e| e.seq + 1).unwrap_or(1)
    } else {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        1
    };
    entry.seq = next_seq;
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open ledger {}: {e}", path.display()))?;
    writeln!(f, "{}", entry_to_json(&entry))
        .map_err(|e| format!("cannot append to ledger {}: {e}", path.display()))?;
    Ok(next_seq)
}

/// The ledger path selected by [`LEDGER_ENV`], if any. An empty value
/// counts as unset, so `GRID_TSQR_LEDGER= cmd` disables writes.
pub fn path_from_env() -> Option<PathBuf> {
    match std::env::var(LEDGER_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) fn sample_entry(scenario: &str, seq: u64) -> LedgerEntry {
    LedgerEntry {
        seq,
        source: "test".into(),
        scenario: scenario.into(),
        sites: 4,
        procs: 256,
        m: 1 << 20,
        n: 64,
        tree: "TSQR64".into(),
        makespan_s: 1.5,
        gflops: 12.25,
        msgs: 1000,
        wan_msgs: 12,
        bytes: 1 << 24,
        cp_compute_s: 0.9,
        cp_send_s: 0.4,
        cp_wan_msgs: 6,
        wait_s: 3.5,
        phases: vec![
            PhaseRow {
                name: "leaf-qr".into(),
                msgs: [0, 0, 0],
                bytes: [0, 0, 0],
                flops: 1 << 30,
                send_s: 0.0,
                compute_s: 0.8,
                wait_s: 0.0,
                predicted_s: 0.81,
            },
            PhaseRow {
                name: "tree-reduce".into(),
                msgs: [100, 60, 12],
                bytes: [1 << 20, 1 << 19, 1 << 16],
                flops: 1 << 20,
                send_s: 0.3,
                compute_s: 0.1,
                wait_s: 3.5,
                predicted_s: 0.41,
            },
        ],
        fit: ModelCoeffs {
            beta_s: 1e-4,
            alpha_s_per_word: 3e-9,
            gamma_s_per_flop: 6e-10,
            rel_residual: 0.012,
        },
        env: EnvFingerprint {
            version: "0.1.0".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            profile: "release".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips() {
        let e = sample_entry("fig5/tsqr", 3);
        let line = entry_to_json(&e);
        let back = parse_entry(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn phase_row_residual_semantics() {
        let p = &sample_entry("fig5/tsqr", 1).phases[1];
        assert!((p.observed_s() - 0.4).abs() < 1e-12);
        assert!((p.residual() - 0.01 / 0.4).abs() < 1e-12);
        // Zero observed time: residual uses the floor, not a division
        // by zero.
        let z = PhaseRow { send_s: 0.0, compute_s: 0.0, ..p.clone() };
        assert!(z.residual().is_finite());
    }

    #[test]
    fn append_assigns_increasing_seq_and_read_validates() {
        let dir = std::env::temp_dir().join(format!("obs-ledger-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("runs.jsonl");
        let s1 = append_entry(&path, sample_entry("fig4/scalapack", 999)).unwrap();
        let s2 = append_entry(&path, sample_entry("fig5/tsqr", 0)).unwrap();
        assert_eq!((s1, s2), (1, 2));
        let entries = read_ledger(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].scenario, "fig4/scalapack");
        assert_eq!(entries[1].seq, 2);

        // A rewound seq is rejected.
        let mut text = fs::read_to_string(&path).unwrap();
        let dup = entry_to_json(&sample_entry("fig5/tsqr", 1));
        text.push_str(&dup);
        text.push('\n');
        fs::write(&path, text).unwrap();
        let err = read_ledger(&path).unwrap_err();
        assert!(err.contains("append-only"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let e = sample_entry("fig5/tsqr", 1);
        let line = entry_to_json(&e).replace("grid-tsqr-ledger/v1", "grid-tsqr-ledger/v0");
        let err = parse_entry(&line).unwrap_err();
        assert!(err.contains("unsupported ledger schema"), "{err}");
    }

    #[test]
    fn env_fingerprint_is_static() {
        let a = EnvFingerprint::current();
        let b = EnvFingerprint::current();
        assert_eq!(a, b);
        assert!(!a.version.is_empty());
        assert!(a.profile == "debug" || a.profile == "release");
    }
}
