//! Thread → core placement policies (the paper's Section 3.2).
//!
//! Three policies are studied:
//!
//! * **Block** (Table 1): thread *i* is bound to core *i*. With the SG2042's
//!   interleaved NUMA map this fills regions 0 and 1 before touching 2 and 3,
//!   which is what starves two of the four memory controllers at 32 threads.
//! * **NUMA-cyclic** (Table 2): threads cycle round NUMA regions and are then
//!   allocated contiguously within a region. The paper's worked example:
//!   4 threads → cores 0, 8, 32, 40; 8 threads → 0, 8, 32, 40, 1, 9, 33, 41.
//! * **Cluster-cyclic** (Table 3): threads cycle round NUMA regions *and*
//!   cycle round the four-core clusters inside each region. Worked example:
//!   8 threads → cores 0, 8, 32, 40, 16, 24, 48, 56.

use crate::topology::Topology;
use std::fmt;

/// A thread-placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Contiguous thread → core mapping (paper Table 1).
    Block,
    /// Cyclic across NUMA regions, contiguous within a region (Table 2).
    NumaCyclic,
    /// Cyclic across NUMA regions and across clusters within a region
    /// (Table 3).
    ClusterCyclic,
}

impl PlacementPolicy {
    /// All policies, in paper order.
    pub const ALL: [PlacementPolicy; 3] =
        [PlacementPolicy::Block, PlacementPolicy::NumaCyclic, PlacementPolicy::ClusterCyclic];

    /// Short name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Block => "block",
            PlacementPolicy::NumaCyclic => "cyclic",
            PlacementPolicy::ClusterCyclic => "cluster",
        }
    }

    /// Compute the core id for each of `n_threads` threads.
    ///
    /// Panics if `n_threads` exceeds the number of cores (the paper never
    /// oversubscribes; SMT is disabled on all machines).
    pub fn map(self, topo: &Topology, n_threads: usize) -> Placement {
        assert!(
            n_threads >= 1 && n_threads <= topo.n_cores(),
            "n_threads {} out of range 1..={}",
            n_threads,
            topo.n_cores()
        );
        let cores = match self {
            PlacementPolicy::Block => (0..n_threads).collect(),
            PlacementPolicy::NumaCyclic => numa_cyclic(topo, n_threads),
            PlacementPolicy::ClusterCyclic => cluster_cyclic(topo, n_threads),
        };
        Placement::new(self, topo, cores)
    }
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cyclic across regions; within a region cores are taken in ascending id
/// order.
fn numa_cyclic(topo: &Topology, n_threads: usize) -> Vec<usize> {
    let region_cores: Vec<Vec<usize>> = topo.regions().iter().map(|r| r.cores()).collect();
    round_robin(&region_cores, n_threads)
}

/// Cyclic across regions; within a region, cyclic across clusters (in the
/// interleaved order the SG2042 layout produces); within a cluster, ascending
/// core id.
fn cluster_cyclic(topo: &Topology, n_threads: usize) -> Vec<usize> {
    let region_cores: Vec<Vec<usize>> = (0..topo.n_regions())
        .map(|r| {
            // Order the region's cores so that consecutive picks land on
            // different clusters: interleave the clusters, then within the
            // sequence take core 0 of each cluster, then core 1, …
            let clusters = topo.region_clusters_interleaved(r);
            let mut out = Vec::new();
            for lane in 0..topo.cluster_size() {
                for &cl in &clusters {
                    let core = topo.cluster_cores(cl).start + lane;
                    out.push(core);
                }
            }
            out
        })
        .collect();
    round_robin(&region_cores, n_threads)
}

/// Take items round-robin from each list until `n` are collected.
fn round_robin(lists: &[Vec<usize>], n: usize) -> Vec<usize> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(n);
    'outer: for slot in 0..longest {
        for list in lists {
            if let Some(&c) = list.get(slot) {
                out.push(c);
                if out.len() == n {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// The result of applying a policy: a thread → core map plus derived
/// occupancy statistics used by the contention model.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Policy that produced this placement.
    pub policy: PlacementPolicy,
    /// `cores[i]` is the core id thread `i` is bound to.
    pub cores: Vec<usize>,
    /// Threads bound to each NUMA region.
    pub threads_per_region: Vec<usize>,
    /// Threads bound to each cluster.
    pub threads_per_cluster: Vec<usize>,
}

impl Placement {
    fn new(policy: PlacementPolicy, topo: &Topology, cores: Vec<usize>) -> Self {
        let mut threads_per_region = vec![0usize; topo.n_regions()];
        let mut threads_per_cluster = vec![0usize; topo.n_clusters()];
        for &c in &cores {
            threads_per_region[topo.core_region(c)] += 1;
            threads_per_cluster[topo.core_cluster(c)] += 1;
        }
        Placement { policy, cores, threads_per_region, threads_per_cluster }
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.cores.len()
    }

    /// Number of NUMA regions with at least one thread.
    pub fn active_regions(&self) -> usize {
        self.threads_per_region.iter().filter(|&&t| t > 0).count()
    }

    /// Largest number of threads sharing one cluster.
    pub fn max_threads_per_cluster(&self) -> usize {
        self.threads_per_cluster.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg() -> Topology {
        Topology::sg2042()
    }

    #[test]
    fn block_is_identity_prefix() {
        let p = PlacementPolicy::Block.map(&sg(), 6);
        assert_eq!(p.cores, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn block_32_threads_uses_half_the_regions() {
        // The paper's explanation for Table 1's collapse at 32 threads:
        // block placement fills regions 0 and 1 only.
        let p = PlacementPolicy::Block.map(&sg(), 32);
        assert_eq!(p.threads_per_region, vec![16, 16, 0, 0]);
        assert_eq!(p.active_regions(), 2);
    }

    #[test]
    fn numa_cyclic_matches_paper_examples() {
        // "four threads are mapped to cores 0, 8, 32, and 40"
        let p4 = PlacementPolicy::NumaCyclic.map(&sg(), 4);
        assert_eq!(p4.cores, vec![0, 8, 32, 40]);
        // "eight threads are placed onto cores 0, 8, 32, 40, 1, 9, 33, and 41"
        let p8 = PlacementPolicy::NumaCyclic.map(&sg(), 8);
        assert_eq!(p8.cores, vec![0, 8, 32, 40, 1, 9, 33, 41]);
    }

    #[test]
    fn cluster_cyclic_matches_paper_example() {
        // "8 threads would be mapped to cores 0, 8, 32, 40, 16, 24, 48, 56"
        let p = PlacementPolicy::ClusterCyclic.map(&sg(), 8);
        assert_eq!(p.cores, vec![0, 8, 32, 40, 16, 24, 48, 56]);
    }

    #[test]
    fn cluster_cyclic_16_spreads_one_thread_per_cluster() {
        let p = PlacementPolicy::ClusterCyclic.map(&sg(), 16);
        assert_eq!(p.max_threads_per_cluster(), 1, "cores: {:?}", p.cores);
        assert_eq!(p.active_regions(), 4);
    }

    #[test]
    fn numa_cyclic_16_packs_clusters() {
        // NUMA-cyclic fills contiguously within a region, so at 16 threads
        // each region has one fully occupied cluster.
        let p = PlacementPolicy::NumaCyclic.map(&sg(), 16);
        assert_eq!(p.max_threads_per_cluster(), 4);
        assert_eq!(p.active_regions(), 4);
    }

    #[test]
    fn all_policies_at_64_threads_cover_all_cores() {
        for pol in PlacementPolicy::ALL {
            let p = pol.map(&sg(), 64);
            let mut cores = p.cores.clone();
            cores.sort_unstable();
            assert_eq!(cores, (0..64).collect::<Vec<_>>(), "{pol}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversubscription_panics() {
        PlacementPolicy::Block.map(&sg(), 65);
    }

    #[test]
    fn single_region_machine_policies_agree_on_region_counts() {
        let topo = Topology::contiguous(18, 1, 4, 18);
        for pol in PlacementPolicy::ALL {
            let p = pol.map(&topo, 9);
            assert_eq!(p.threads_per_region, vec![9], "{pol}");
        }
    }
}
