//! Core / cluster / NUMA-region layout.
//!
//! The SG2042 has an unusual layout that the paper discovered with `lscpu`:
//! core ids are *not* contiguous within a NUMA region. Instead eight
//! consecutive cores reside in a region, then there is a gap of eight, and
//! the following eight are also in the region:
//!
//! * region 0: cores 0–7 and 16–23
//! * region 1: cores 8–15 and 24–31
//! * region 2: cores 32–39 and 48–55
//! * region 3: cores 40–47 and 56–63
//!
//! Clusters (the four-core groups sharing 1 MB of L2) are contiguous in core
//! id: {0–3}, {4–7}, … This module encodes both facts and exposes the
//! lookups the placement policies and the contention model need.

/// A NUMA region: a set of cores expressed as contiguous core-id ranges,
/// served by local memory controller(s).
#[derive(Debug, Clone)]
pub struct NumaRegion {
    /// Region index.
    pub id: usize,
    /// Core-id ranges `[start, end)` belonging to this region, in ascending
    /// order. The SG2042 has two ranges per region; simpler machines one.
    pub core_ranges: Vec<(usize, usize)>,
    /// Number of memory controllers local to this region.
    pub controllers: usize,
}

impl NumaRegion {
    /// All core ids in this region, in ascending order.
    pub fn cores(&self) -> Vec<usize> {
        self.core_ranges.iter().flat_map(|&(s, e)| s..e).collect()
    }

    /// Number of cores in the region.
    pub fn n_cores(&self) -> usize {
        self.core_ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether the region contains a core id.
    pub fn contains(&self, core: usize) -> bool {
        self.core_ranges.iter().any(|&(s, e)| core >= s && core < e)
    }
}

/// A position in a region's interleaved cluster order
/// (`Topology::next_interleaved`): the `slot`-th cluster of range `range`
/// comes next.
#[derive(Default)]
pub(crate) struct InterleavePos {
    slot: usize,
    range: usize,
}

/// Full core/cluster/NUMA layout of a package.
#[derive(Debug, Clone)]
pub struct Topology {
    n_cores: usize,
    /// Cores per cluster (L2-sharing group); clusters are contiguous in id.
    cluster_size: usize,
    regions: Vec<NumaRegion>,
    /// Derived: core id → region id.
    core_to_region: Vec<usize>,
}

impl Topology {
    /// Build a topology from explicit regions. Panics (in `validate`) if the
    /// regions do not partition `0..n_cores`.
    pub fn new(n_cores: usize, cluster_size: usize, regions: Vec<NumaRegion>) -> Self {
        let mut core_to_region = vec![usize::MAX; n_cores];
        for r in &regions {
            for c in r.cores() {
                if c < n_cores {
                    core_to_region[c] = r.id;
                }
            }
        }
        Topology { n_cores, cluster_size, regions, core_to_region }
    }

    /// A conventional topology: `n_regions` NUMA regions of contiguous core
    /// ids, `controllers_per_region` controllers each, clusters of
    /// `cluster_size` contiguous cores.
    pub fn contiguous(
        n_cores: usize,
        n_regions: usize,
        controllers_per_region: usize,
        cluster_size: usize,
    ) -> Self {
        assert!(n_regions > 0 && n_cores % n_regions == 0);
        let per = n_cores / n_regions;
        let regions = (0..n_regions)
            .map(|id| NumaRegion {
                id,
                core_ranges: vec![(id * per, (id + 1) * per)],
                controllers: controllers_per_region,
            })
            .collect();
        Topology::new(n_cores, cluster_size, regions)
    }

    /// The SG2042's interleaved 64-core layout described in the paper.
    pub fn sg2042() -> Self {
        let regions = vec![
            NumaRegion { id: 0, core_ranges: vec![(0, 8), (16, 24)], controllers: 1 },
            NumaRegion { id: 1, core_ranges: vec![(8, 16), (24, 32)], controllers: 1 },
            NumaRegion { id: 2, core_ranges: vec![(32, 40), (48, 56)], controllers: 1 },
            NumaRegion { id: 3, core_ranges: vec![(40, 48), (56, 64)], controllers: 1 },
        ];
        Topology::new(64, 4, regions)
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Cores per cluster.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.n_cores / self.cluster_size
    }

    /// NUMA regions.
    pub fn regions(&self) -> &[NumaRegion] {
        &self.regions
    }

    /// Number of NUMA regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// Region id of a core.
    pub fn core_region(&self, core: usize) -> usize {
        self.core_to_region[core]
    }

    /// Cluster id of a core (clusters are contiguous in core id).
    pub fn core_cluster(&self, core: usize) -> usize {
        // A shift where the size allows: most packages cluster cores in
        // twos or fours, and placement looks a core's cluster up often.
        if self.cluster_size.is_power_of_two() {
            core >> self.cluster_size.trailing_zeros()
        } else {
            core / self.cluster_size
        }
    }

    /// Core ids of a cluster, ascending.
    pub fn cluster_cores(&self, cluster: usize) -> std::ops::Range<usize> {
        cluster * self.cluster_size..(cluster + 1) * self.cluster_size
    }

    /// Number of clusters in `region`'s interleaved order
    /// ([`next_interleaved`](Self::next_interleaved)): the clusters each of
    /// the region's ranges touches, summed.
    pub(crate) fn region_cluster_count(&self, region: usize) -> usize {
        self.regions[region].core_ranges.iter().map(|&(s, e)| self.range_clusters(s, e)).sum()
    }

    /// The cluster at `pos` in `region`'s interleaved order, stepping `pos`
    /// past it; `None` once the order is done. The order interleaves the
    /// region's contiguous ranges (first cluster of range 0, first cluster
    /// of range 1, second of range 0, …). It reproduces the paper's
    /// cluster-cyclic placement example: region 0's clusters come out as
    /// those starting at cores 0, 16, 4, 20.
    pub(crate) fn next_interleaved(&self, region: usize, pos: &mut InterleavePos) -> Option<usize> {
        let ranges = &self.regions[region].core_ranges;
        loop {
            if pos.range == ranges.len() {
                // Every range has had its turn at this slot: on to the next,
                // unless no range has a cluster there.
                pos.range = 0;
                pos.slot += 1;
                if ranges.iter().all(|&(s, e)| pos.slot >= self.range_clusters(s, e)) {
                    return None;
                }
            }
            let (s, e) = ranges[pos.range];
            pos.range += 1;
            if pos.slot < self.range_clusters(s, e) {
                return Some(self.core_cluster(s) + pos.slot);
            }
        }
    }

    /// Clusters the core range `[s, e)` touches (clusters are contiguous in
    /// core id, so they run from `s`'s to `e - 1`'s).
    fn range_clusters(&self, s: usize, e: usize) -> usize {
        if e > s {
            self.core_cluster(e - 1) - self.core_cluster(s) + 1
        } else {
            0
        }
    }

    /// Structural sanity check: regions partition the core set, clusters
    /// divide it evenly, and no cluster spans two regions.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("zero cores".into());
        }
        if self.cluster_size == 0 || self.n_cores % self.cluster_size != 0 {
            return Err(format!(
                "cluster size {} does not divide {} cores",
                self.cluster_size, self.n_cores
            ));
        }
        if self.regions.is_empty() {
            return Err("no NUMA regions".into());
        }
        let mut seen = vec![false; self.n_cores];
        for r in &self.regions {
            for c in r.cores() {
                if c >= self.n_cores {
                    return Err(format!("region {} references core {c}", r.id));
                }
                if seen[c] {
                    return Err(format!("core {c} in two regions"));
                }
                seen[c] = true;
            }
            if r.controllers == 0 {
                return Err(format!("region {} has no controllers", r.id));
            }
        }
        if let Some(c) = seen.iter().position(|s| !s) {
            return Err(format!("core {c} in no region"));
        }
        for cl in 0..self.n_clusters() {
            let cores = self.cluster_cores(cl);
            let region = self.core_region(cores.start);
            for c in cores {
                if self.core_region(c) != region {
                    return Err(format!("cluster {cl} spans regions"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sg2042_region_map_matches_lscpu() {
        let t = Topology::sg2042();
        t.validate().unwrap();
        // Paper: cores 0-7 and 16-23 are NUMA region 0, 8-15 and 24-31 are
        // region 1, 32-39 and 48-55 region 2, 40-47 and 56-63 region 3.
        for c in (0..8).chain(16..24) {
            assert_eq!(t.core_region(c), 0, "core {c}");
        }
        for c in (8..16).chain(24..32) {
            assert_eq!(t.core_region(c), 1, "core {c}");
        }
        for c in (32..40).chain(48..56) {
            assert_eq!(t.core_region(c), 2, "core {c}");
        }
        for c in (40..48).chain(56..64) {
            assert_eq!(t.core_region(c), 3, "core {c}");
        }
    }

    #[test]
    fn sg2042_has_16_clusters_of_4() {
        let t = Topology::sg2042();
        assert_eq!(t.n_clusters(), 16);
        assert_eq!(t.core_cluster(0), 0);
        assert_eq!(t.core_cluster(3), 0);
        assert_eq!(t.core_cluster(4), 1);
        assert_eq!(t.core_cluster(63), 15);
    }

    #[test]
    fn sg2042_interleaved_cluster_order() {
        let t = Topology::sg2042();
        // Region 0 ranges are 0-7 and 16-23 → clusters {0-3},{4-7} and
        // {16-19},{20-23}; interleaved order starts 0, 16, 4, 20.
        let mut pos = InterleavePos::default();
        let order: Vec<usize> = std::iter::from_fn(|| t.next_interleaved(0, &mut pos))
            .map(|cl| t.cluster_cores(cl).start)
            .collect();
        assert_eq!(order, vec![0, 16, 4, 20]);
    }

    #[test]
    fn contiguous_topology() {
        let t = Topology::contiguous(64, 4, 2, 4);
        t.validate().unwrap();
        assert_eq!(t.core_region(0), 0);
        assert_eq!(t.core_region(16), 1);
        assert_eq!(t.core_region(63), 3);
        assert_eq!(t.regions()[0].controllers, 2);
    }

    #[test]
    fn single_region_topology() {
        let t = Topology::contiguous(18, 1, 4, 18);
        t.validate().unwrap();
        assert_eq!(t.n_regions(), 1);
        assert_eq!(t.n_clusters(), 1);
    }

    #[test]
    fn validate_rejects_overlapping_regions() {
        let regions = vec![
            NumaRegion { id: 0, core_ranges: vec![(0, 5)], controllers: 1 },
            NumaRegion { id: 1, core_ranges: vec![(4, 8)], controllers: 1 },
        ];
        let t = Topology::new(8, 4, regions);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_uncovered_core() {
        let regions = vec![NumaRegion { id: 0, core_ranges: vec![(0, 7)], controllers: 1 }];
        let t = Topology::new(8, 4, regions);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_cluster_spanning_regions() {
        // Clusters of 4, but the region boundary splits core 2.
        let regions = vec![
            NumaRegion { id: 0, core_ranges: vec![(0, 2)], controllers: 1 },
            NumaRegion { id: 1, core_ranges: vec![(2, 8)], controllers: 1 },
        ];
        let t = Topology::new(8, 4, regions);
        assert!(t.validate().is_err());
    }
}
