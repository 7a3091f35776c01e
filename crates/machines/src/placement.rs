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

use crate::topology::{InterleavePos, Topology};
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
    /// Block placement takes cores in id order. The cyclic policies take
    /// one core from each NUMA region in turn, the next of that region's
    /// own order, skipping regions with none left:
    ///
    /// * NUMA-cyclic orders a region's cores by ascending id;
    /// * cluster-cyclic cycles the region's clusters in an order that
    ///   interleaves the region's core ranges (first cluster of range 0,
    ///   first of range 1, second of range 0, …), taking core 0 of each
    ///   cluster, then core 1, …
    ///
    /// Panics if `n_threads` exceeds the number of cores (the paper never
    /// oversubscribes; SMT is disabled on all machines).
    pub fn map(self, topo: &Topology, n_threads: usize) -> Placement {
        check_threads(topo, n_threads);
        if self == PlacementPolicy::Block {
            return Placement::new(self, topo, (0..n_threads).collect());
        }
        // Each region's share of the turns, taken off the front of its own
        // order, then dealt out again slot by slot.
        let shares = shares(self, topo, n_threads);
        let orders: Vec<Vec<usize>> = (0..topo.n_regions())
            .map(|region| region_order(self, topo, region, shares.as_ref()[region]))
            .collect();
        let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
        let cores = (0..longest).flat_map(|slot| orders.iter().filter_map(move |o| o.get(slot)));
        Placement::new(self, topo, cores.copied().collect())
    }

    /// How `n_threads` threads occupy `topo`: the per-region counts and the
    /// busiest cluster's count of [`map`](Self::map)'s placement, without
    /// the thread → core map. The regions' shares are [`map`](Self::map)'s,
    /// and each share is counted off the front of its region's own order a
    /// range or a cluster at a time instead of a core at a time. Allocates
    /// nothing on topologies of up to 64 clusters in up to 8 regions. The
    /// topology must be valid ([`Topology::validate`]), as every machine
    /// descriptor's is.
    ///
    /// Panics like [`map`](Self::map).
    pub fn occupancy(self, topo: &Topology, n_threads: usize) -> Occupancy {
        check_threads(topo, n_threads);
        let mut threads_per_region = Inline::new(topo.n_regions());
        let mut per_cluster: Inline<usize, INLINE_CLUSTERS> = Inline::new(topo.n_clusters());
        let (regions, clusters) = (threads_per_region.as_mut(), per_cluster.as_mut());
        if self == PlacementPolicy::Block {
            count_span(topo, 0, n_threads, regions, clusters);
        } else {
            let shares = shares(self, topo, n_threads);
            for (region, &share) in shares.as_ref().iter().enumerate() {
                count_prefix(self, topo, region, share, regions, clusters);
            }
        }
        Occupancy {
            n_threads: regions.iter().sum(),
            max_threads_per_cluster: clusters.iter().copied().max().unwrap_or(0),
            threads_per_region,
        }
    }
}

fn check_threads(topo: &Topology, n_threads: usize) {
    assert!(
        n_threads >= 1 && n_threads <= topo.n_cores(),
        "n_threads {} out of range 1..={}",
        n_threads,
        topo.n_cores()
    );
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Length of a region's own order under a cyclic policy.
fn region_len(policy: PlacementPolicy, topo: &Topology, region: usize) -> usize {
    match policy {
        PlacementPolicy::ClusterCyclic => topo.cluster_size() * topo.region_cluster_count(region),
        _ => topo.regions()[region].n_cores(),
    }
}

/// How many of the first `n` turns of a cyclic policy's round robin each
/// region takes. Slot by slot, every region whose own order reaches that
/// slot takes one turn, in region order; this counts a run of slots with
/// the same live regions at a time.
fn shares(policy: PlacementPolicy, topo: &Topology, mut n: usize) -> Inline<usize, INLINE_REGIONS> {
    let mut lens: Inline<usize, INLINE_REGIONS> = Inline::new(topo.n_regions());
    for (region, len) in lens.as_mut().iter_mut().enumerate() {
        *len = region_len(policy, topo, region);
    }
    let lens = lens.as_ref();
    let mut shares = Inline::new(lens.len());
    let mut slot = 0;
    while n > 0 {
        // The regions whose order reaches this slot, and the slot the first
        // of them runs out at.
        let live = lens.iter().filter(|&&len| len > slot).count();
        let Some(until) = lens.iter().copied().filter(|&len| len > slot).min() else { break };
        let slots = (n / live).min(until - slot);
        if slots == 0 {
            // The last, partial slot: the first `n` live regions.
            let live = shares.as_mut().iter_mut().zip(lens).filter(|(_, &len)| len > slot);
            for (share, _) in live.take(n) {
                *share += 1;
            }
            break;
        }
        for (share, &len) in shares.as_mut().iter_mut().zip(lens) {
            if len > slot {
                *share += slots;
            }
        }
        n -= slots * live;
        slot += slots;
    }
    shares
}

/// The first `share` cores of `region`'s own order under a cyclic policy.
fn region_order(
    policy: PlacementPolicy,
    topo: &Topology,
    region: usize,
    share: usize,
) -> Vec<usize> {
    let mut cores = Vec::with_capacity(share);
    if policy == PlacementPolicy::ClusterCyclic {
        for lane in 0..topo.cluster_size() {
            let mut pos = InterleavePos::default();
            while let Some(cluster) = topo.next_interleaved(region, &mut pos) {
                if cores.len() == share {
                    return cores;
                }
                cores.push(topo.cluster_cores(cluster).start + lane);
            }
        }
        return cores;
    }
    let ranges = &topo.regions()[region].core_ranges;
    cores.extend(ranges.iter().flat_map(|&(s, e)| s..e).take(share));
    cores
}

/// Count the first `share` cores of `region`'s own order under a cyclic
/// policy into the region and cluster counts: what [`region_order`] gives,
/// counted a range or a cluster at a time.
fn count_prefix(
    policy: PlacementPolicy,
    topo: &Topology,
    region: usize,
    share: usize,
    regions: &mut [usize],
    clusters: &mut [usize],
) {
    if policy == PlacementPolicy::ClusterCyclic {
        // Lane-major over the interleaved clusters: every entry of that
        // order (a cluster each range of the region touches) gets `lanes`
        // cores, and the first `extra` entries one more.
        let n = topo.region_cluster_count(region);
        if n == 0 {
            return;
        }
        let (lanes, extra) = (share / n, share % n);
        regions[region] += share;
        for &(s, e) in &topo.regions()[region].core_ranges {
            if e > s {
                for count in &mut clusters[topo.core_cluster(s)..=topo.core_cluster(e - 1)] {
                    *count += lanes;
                }
            }
        }
        let mut pos = InterleavePos::default();
        for _ in 0..extra {
            if let Some(cluster) = topo.next_interleaved(region, &mut pos) {
                clusters[cluster] += 1;
            }
        }
        return;
    }
    let mut left = share;
    for &(s, e) in &topo.regions()[region].core_ranges {
        let taken = left.min(e - s);
        count_span(topo, s, s + taken, regions, clusters);
        left -= taken;
    }
}

/// Count one thread on each core of `[s, e)`, a cluster at a time (a
/// cluster lies in one region on a valid topology).
fn count_span(topo: &Topology, s: usize, e: usize, regions: &mut [usize], clusters: &mut [usize]) {
    let (mut core, mut cluster) = (s, topo.core_cluster(s));
    while core < e {
        let end = e.min(topo.cluster_cores(cluster).end);
        clusters[cluster] += end - core;
        regions[topo.core_region(core)] += end - core;
        (core, cluster) = (end, cluster + 1);
    }
}

/// Clusters [`PlacementPolicy::occupancy`] counts threads in without
/// allocating (every catalog machine has at most 16).
const INLINE_CLUSTERS: usize = 64;

/// NUMA regions an [`Occupancy`] holds counts for inline (every catalog
/// machine has at most 4).
const INLINE_REGIONS: usize = 8;

/// A short array of `len` values, all starting at their default, held
/// inline up to `N` of them and on the heap beyond.
#[derive(Clone)]
struct Inline<T, const N: usize> {
    inline: [T; N],
    spilled: Vec<T>,
    len: usize,
}

impl<T: Copy + Default, const N: usize> Inline<T, N> {
    fn new(len: usize) -> Self {
        let spilled = if len > N { vec![T::default(); len] } else { Vec::new() };
        Inline { inline: [T::default(); N], spilled, len }
    }
}

impl<T, const N: usize> AsRef<[T]> for Inline<T, N> {
    fn as_ref(&self) -> &[T] {
        if self.len > N {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }
}

impl<T, const N: usize> AsMut<[T]> for Inline<T, N> {
    fn as_mut(&mut self) -> &mut [T] {
        if self.len > N {
            &mut self.spilled
        } else {
            &mut self.inline[..self.len]
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_ref()).finish()
    }
}

/// How a policy's threads occupy a topology
/// ([`PlacementPolicy::occupancy`]): what the contention model reads of a
/// [`Placement`], without the thread → core map.
#[derive(Debug, Clone)]
pub struct Occupancy {
    n_threads: usize,
    max_threads_per_cluster: usize,
    threads_per_region: Inline<usize, INLINE_REGIONS>,
}

impl Occupancy {
    /// Number of threads placed.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Threads bound to each NUMA region.
    pub fn threads_per_region(&self) -> &[usize] {
        self.threads_per_region.as_ref()
    }

    /// Largest number of threads sharing one cluster.
    pub fn max_threads_per_cluster(&self) -> usize {
        self.max_threads_per_cluster
    }
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
