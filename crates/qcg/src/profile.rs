//! JobProfiles: what an application asks of the meta-scheduler.

/// Network quality demanded between (or within) process groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkRequirement {
    /// Largest acceptable one-way latency, seconds.
    pub max_latency_s: f64,
    /// Smallest acceptable bandwidth, bits per second.
    pub min_bandwidth_bps: f64,
}

impl NetworkRequirement {
    /// A requirement satisfied by any link (no constraint).
    pub fn any() -> Self {
        NetworkRequirement { max_latency_s: f64::INFINITY, min_bandwidth_bps: 0.0 }
    }

    /// Convenience constructor in milliseconds / Mb/s.
    pub fn from_ms_mbps(max_latency_ms: f64, min_mbps: f64) -> Self {
        NetworkRequirement {
            max_latency_s: max_latency_ms * 1e-3,
            min_bandwidth_bps: min_mbps * 1e6,
        }
    }

    /// True when a link with the given parameters satisfies this
    /// requirement.
    pub fn satisfied_by(&self, latency_s: f64, bandwidth_bps: f64) -> bool {
        latency_s <= self.max_latency_s && bandwidth_bps >= self.min_bandwidth_bps
    }
}

/// The application's requirements document (§II-D): process groups of
/// equivalent computing power, with different network quality inside and
/// between groups.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Number of process groups (one per "cluster-like" resource).
    pub groups: usize,
    /// Processes wanted in every group (equal sizes — the load-balance
    /// constraint of §III).
    pub procs_per_group: usize,
    /// Network quality demanded inside a group.
    pub intra_group: NetworkRequirement,
    /// Network quality demanded between any two groups.
    pub inter_group: NetworkRequirement,
    /// Relative spread of per-group aggregate compute power the
    /// application tolerates (e.g. `0.35` = 35%). Groups further apart are
    /// throttled to the slowest by the allocator.
    pub power_balance_tolerance: f64,
}

impl JobProfile {
    /// The profile used by QCG-TSQR (§III): `sites` equal groups of
    /// `procs_per_group` processes, cluster-quality networking inside a
    /// group, anything between groups.
    pub fn cluster_of_clusters(sites: usize, procs_per_group: usize) -> Self {
        JobProfile {
            groups: sites,
            procs_per_group,
            // GigE-class cluster interconnect or better.
            intra_group: NetworkRequirement::from_ms_mbps(1.0, 500.0),
            inter_group: NetworkRequirement::any(),
            power_balance_tolerance: 0.35,
        }
    }

    /// Total processes requested.
    pub fn total_procs(&self) -> usize {
        self.groups * self.procs_per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirement_check() {
        let req = NetworkRequirement::from_ms_mbps(1.0, 500.0);
        assert!(req.satisfied_by(0.07e-3, 890e6)); // intra-cluster GigE
        assert!(!req.satisfied_by(7.97e-3, 890e6)); // WAN latency too high
        assert!(!req.satisfied_by(0.07e-3, 80e6)); // bandwidth too low
        assert!(NetworkRequirement::any().satisfied_by(10.0, 1.0));
    }

    #[test]
    fn cluster_of_clusters_profile() {
        let p = JobProfile::cluster_of_clusters(4, 64);
        assert_eq!(p.total_procs(), 256);
        assert!(p.intra_group.satisfied_by(0.07e-3, 890e6));
        assert!(p.inter_group.satisfied_by(9.03e-3, 77e6));
    }
}
