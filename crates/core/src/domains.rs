//! Domain decomposition: splitting the TS matrix and the process set.
//!
//! A **domain** is a block of rows processed by one leaf of the TSQR
//! reduction (§III). The paper's key generalization over the original TSQR
//! is that a domain may be handled by a *group* of processes jointly
//! running a ScaLAPACK-style factorization: one domain per process is the
//! original TSQR (LAPACK leaves), one domain per *cluster* makes the whole
//! grid run like per-site ScaLAPACK with a single combine level, and the
//! sweet spot in between is what Figs. 6–7 explore through the
//! `domains_per_cluster` knob.

use tsqr_netsim::GridTopology;

/// One domain: its process group and its slice of global rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    /// Global ranks jointly factoring this domain; `ranks[0]` is the
    /// domain root (holds the domain's R factor and the top rows).
    pub ranks: Vec<usize>,
    /// First global row of the domain's slice.
    pub row0: u64,
    /// Number of rows in the slice.
    pub rows: u64,
    /// The cluster hosting the domain (domains never span clusters).
    pub cluster: usize,
}

/// A complete decomposition of an `m × n` problem over a placed topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainLayout {
    /// The domains, in row order (domain 0 owns the top rows and its root
    /// is global rank 0).
    pub domains: Vec<Domain>,
    /// Global row count.
    pub m: u64,
    /// Column count.
    pub n: usize,
}

/// Splits `total` items into `parts` nearly-equal contiguous chunks
/// (remainder spread over the first chunks).
pub fn even_chunks(total: u64, parts: usize) -> Vec<u64> {
    let parts64 = parts as u64;
    (0..parts64).map(|i| total / parts64 + u64::from(i < total % parts64)).collect()
}

impl DomainLayout {
    /// Builds the layout: each cluster's ranks are split into
    /// `domains_per_cluster` contiguous groups, and the `m` rows are
    /// divided evenly over all domains.
    ///
    /// Panics when `domains_per_cluster` does not divide the per-cluster
    /// process count (the configurations of Figs. 6–7 are all powers of
    /// two) or when a domain would have fewer than `n` rows.
    pub fn build(topo: &GridTopology, m: u64, n: usize, domains_per_cluster: usize) -> Self {
        assert!(domains_per_cluster > 0, "need at least one domain per cluster");
        let mut domains = Vec::new();
        for c in 0..topo.num_clusters() {
            let ranks = topo.ranks_in_cluster(c);
            assert!(
                !ranks.is_empty() && ranks.len().is_multiple_of(domains_per_cluster),
                "cluster {c}: {} ranks not divisible into {domains_per_cluster} domains",
                ranks.len()
            );
            let per = ranks.len() / domains_per_cluster;
            for d in 0..domains_per_cluster {
                domains.push(Domain {
                    ranks: ranks[d * per..(d + 1) * per].to_vec(),
                    row0: 0, // filled below
                    rows: 0,
                    cluster: c,
                });
            }
        }
        let chunks = even_chunks(m, domains.len());
        let mut row0 = 0;
        for (dom, rows) in domains.iter_mut().zip(chunks) {
            dom.row0 = row0;
            dom.rows = rows;
            row0 += rows;
            assert!(
                dom.rows >= n as u64,
                "domain starting at row {} has {} rows < n = {n}; use fewer domains",
                dom.row0,
                dom.rows
            );
        }
        DomainLayout { domains, m, n }
    }

    /// Load-balanced variant (the paper's §III "natural extension", left
    /// as future work there): rows are attributed to each domain in
    /// proportion to `rate_of_cluster[domain.cluster]`, so faster clusters
    /// finish their leaf factorization at the same virtual time as slower
    /// ones.
    pub fn build_weighted(
        topo: &GridTopology,
        m: u64,
        n: usize,
        domains_per_cluster: usize,
        rate_of_cluster: &[f64],
    ) -> Self {
        let mut layout = Self::build(topo, m, n, domains_per_cluster);
        assert_eq!(rate_of_cluster.len(), topo.num_clusters(), "one rate per cluster");
        assert!(rate_of_cluster.iter().all(|&r| r > 0.0), "rates must be positive");
        let total_rate: f64 = layout.domains.iter().map(|d| rate_of_cluster[d.cluster]).sum();
        // Proportional split with largest-remainder rounding.
        let ideal: Vec<f64> = layout
            .domains
            .iter()
            .map(|d| m as f64 * rate_of_cluster[d.cluster] / total_rate)
            .collect();
        let mut rows: Vec<u64> = ideal.iter().map(|&x| x.floor() as u64).collect();
        let rem = m - rows.iter().sum::<u64>();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            (ideal[b] - ideal[b].floor()).total_cmp(&(ideal[a] - ideal[a].floor()))
        });
        for &i in order.iter().take(rem as usize) {
            rows[i] += 1;
        }
        let mut row0 = 0;
        for (dom, r) in layout.domains.iter_mut().zip(rows) {
            dom.row0 = row0;
            dom.rows = r;
            row0 += r;
            assert!(dom.rows >= n as u64, "weighted layout starved a domain below n rows");
        }
        layout
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// The domain a global rank belongs to.
    pub(crate) fn domain_of_rank(&self, rank: usize) -> Option<usize> {
        self.domains.iter().position(|d| d.ranks.contains(&rank))
    }

    /// Global rank of every domain root, in domain order — the TSQR
    /// reduction participants.
    pub fn roots(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.ranks[0]).collect()
    }

    /// Cluster of every domain, in domain order (for the hierarchical
    /// tree).
    pub fn clusters(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.cluster).collect()
    }

    /// The row slice of `member_idx` within domain `d`: the domain's rows
    /// are split evenly over its group, the root taking the top chunk.
    pub(crate) fn member_rows(&self, d: usize, member_idx: usize) -> (u64, u64) {
        let dom = &self.domains[d];
        let chunks = even_chunks(dom.rows, dom.ranks.len());
        let offset: u64 = chunks[..member_idx].iter().sum();
        (dom.row0 + offset, chunks[member_idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::grid5000;

    #[test]
    fn even_chunks_cover_and_balance() {
        assert_eq!(even_chunks(10, 3), vec![4, 3, 3]);
        assert_eq!(even_chunks(9, 3), vec![3, 3, 3]);
        assert_eq!(even_chunks(2, 2), vec![1, 1]);
        let chunks = even_chunks(1_000_003, 7);
        assert_eq!(chunks.iter().sum::<u64>(), 1_000_003);
        assert!(chunks.iter().max().unwrap() - chunks.iter().min().unwrap() <= 1);
    }

    #[test]
    fn one_domain_per_process() {
        let topo = grid5000::topology(2); // 128 procs
        let layout = DomainLayout::build(&topo, 1 << 20, 64, 64);
        assert_eq!(layout.num_domains(), 128);
        assert!(layout.domains.iter().all(|d| d.ranks.len() == 1));
        // Rows tile [0, m).
        let mut row = 0;
        for d in &layout.domains {
            assert_eq!(d.row0, row);
            row += d.rows;
        }
        assert_eq!(row, 1 << 20);
    }

    #[test]
    fn one_domain_per_cluster_groups_all_site_ranks() {
        let topo = grid5000::topology(4);
        let layout = DomainLayout::build(&topo, 1 << 22, 64, 1);
        assert_eq!(layout.num_domains(), 4);
        for (c, d) in layout.domains.iter().enumerate() {
            assert_eq!(d.ranks.len(), 64);
            assert_eq!(d.cluster, c);
            assert_eq!(d.ranks[0], c * 64);
        }
        assert_eq!(layout.roots(), vec![0, 64, 128, 192]);
    }

    #[test]
    fn intermediate_domain_counts() {
        let topo = grid5000::topology(1);
        for dpc in [1, 2, 4, 8, 16, 32, 64] {
            let layout = DomainLayout::build(&topo, 1 << 20, 64, dpc);
            assert_eq!(layout.num_domains(), dpc);
            assert!(layout.domains.iter().all(|d| d.ranks.len() == 64 / dpc));
        }
    }

    #[test]
    fn member_rows_partition_each_domain() {
        let topo = grid5000::topology(1);
        let layout = DomainLayout::build(&topo, 100_000, 32, 8);
        for d in 0..8 {
            let g = layout.domains[d].ranks.len();
            let mut row = layout.domains[d].row0;
            for i in 0..g {
                let (r0, rows) = layout.member_rows(d, i);
                assert_eq!(r0, row);
                row += rows;
            }
            assert_eq!(row, layout.domains[d].row0 + layout.domains[d].rows);
        }
    }

    #[test]
    fn domain_of_rank_round_trip() {
        let topo = grid5000::topology(2);
        let layout = DomainLayout::build(&topo, 1 << 20, 64, 16);
        for rank in 0..topo.num_procs() {
            let d = layout.domain_of_rank(rank).unwrap();
            assert!(layout.domains[d].ranks.contains(&rank));
        }
    }

    #[test]
    fn weighted_layout_shifts_rows_to_fast_clusters() {
        let topo = grid5000::topology(2);
        let layout = DomainLayout::build_weighted(&topo, 1_000_000, 64, 4, &[1.0, 3.0]);
        let slow: u64 = layout.domains.iter().filter(|d| d.cluster == 0).map(|d| d.rows).sum();
        let fast: u64 = layout.domains.iter().filter(|d| d.cluster == 1).map(|d| d.rows).sum();
        assert_eq!(slow + fast, 1_000_000);
        let ratio = fast as f64 / slow as f64;
        assert!((ratio - 3.0).abs() < 0.01, "ratio was {ratio}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_domain_count_panics() {
        let topo = grid5000::topology(1); // 64 ranks per cluster
        let _ = DomainLayout::build(&topo, 1 << 20, 64, 3);
    }

    #[test]
    #[should_panic(expected = "rows < n")]
    fn too_short_domains_panic() {
        let topo = grid5000::topology(1);
        let _ = DomainLayout::build(&topo, 100, 64, 64);
    }
}
