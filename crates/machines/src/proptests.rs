//! Property tests for topologies and placement policies.

#![cfg(test)]

use crate::catalog::catalog;
use crate::ids::MachineId;
use crate::placement::PlacementPolicy;
use crate::topology::Topology;
use rvhpc_quickprop::{run_cases, Gen};

/// Generate a valid contiguous topology (cores divisible by regions and
/// clusters, clusters not spanning regions).
fn topology(g: &mut Gen) -> Topology {
    let regions = g.usize_in(1..=4);
    let clusters_per_region = g.usize_in(1..=4);
    let cluster_size = *g.choose(&[1usize, 2, 4]);
    let per_region = clusters_per_region * cluster_size;
    Topology::contiguous(regions * per_region, regions, 1, cluster_size)
}

/// A thread count between one and full occupancy of `topo`.
fn thread_count(g: &mut Gen, topo: &Topology) -> usize {
    let frac = g.f64_in(0.01, 1.0);
    ((topo.n_cores() as f64 * frac).ceil() as usize).clamp(1, topo.n_cores())
}

/// Any policy on any topology: the thread→core map is injective, within
/// bounds, and its occupancy statistics are consistent.
#[test]
fn placements_are_injective_and_consistent() {
    run_cases(256, |g| {
        let topo = topology(g);
        let policy = *g.choose(&PlacementPolicy::ALL);
        let n_threads = thread_count(g, &topo);
        let p = policy.map(&topo, n_threads);
        assert_eq!(p.n_threads(), n_threads);

        let mut seen = vec![false; topo.n_cores()];
        for &c in &p.cores {
            assert!(c < topo.n_cores(), "core {c} out of range");
            assert!(!seen[c], "core {c} assigned twice");
            seen[c] = true;
        }
        assert_eq!(p.threads_per_region.iter().sum::<usize>(), n_threads);
        assert_eq!(p.threads_per_cluster.iter().sum::<usize>(), n_threads);
        assert_occupancy_matches_map(&topo, policy, n_threads);
    });
}

/// The counts [`PlacementPolicy::occupancy`] takes in its walk are the
/// ones [`PlacementPolicy::map`]'s placement holds.
fn assert_occupancy_matches_map(topo: &Topology, policy: PlacementPolicy, n_threads: usize) {
    let p = policy.map(topo, n_threads);
    let occupancy = policy.occupancy(topo, n_threads);
    assert_eq!(occupancy.n_threads(), p.n_threads(), "{policy} {n_threads}");
    assert_eq!(occupancy.threads_per_region(), &p.threads_per_region[..], "{policy} {n_threads}");
    assert_eq!(
        occupancy.max_threads_per_cluster(),
        p.max_threads_per_cluster(),
        "{policy} {n_threads}"
    );
}

/// The walk's counts equal the map's at every thread count of every
/// catalog machine (the what-if part included) and of every contiguous
/// shape the generator above draws from.
#[test]
fn occupancy_matches_the_map_everywhere() {
    let catalog_topologies = MachineId::CATALOG.map(|id| catalog(id).topology.clone());
    let mut shapes = Vec::new();
    for regions in 1..=4 {
        for clusters_per_region in 1..=4 {
            for cluster_size in [1usize, 2, 4] {
                let cores = regions * clusters_per_region * cluster_size;
                shapes.push(Topology::contiguous(cores, regions, 1, cluster_size));
            }
        }
    }
    for topo in catalog_topologies.iter().chain(&shapes) {
        for policy in PlacementPolicy::ALL {
            for n_threads in 1..=topo.n_cores() {
                assert_occupancy_matches_map(topo, policy, n_threads);
            }
        }
    }
}

/// The cyclic policies never load one region with two more threads than
/// another (balance property the contention model relies on).
#[test]
fn cyclic_policies_balance_regions() {
    run_cases(256, |g| {
        let topo = topology(g);
        let n_threads = thread_count(g, &topo);
        for policy in [PlacementPolicy::NumaCyclic, PlacementPolicy::ClusterCyclic] {
            let p = policy.map(&topo, n_threads);
            let max = p.threads_per_region.iter().max().copied().unwrap_or(0);
            let min = p.threads_per_region.iter().min().copied().unwrap_or(0);
            assert!(max - min <= 1, "{policy}: regions {:?}", p.threads_per_region);
        }
    });
}

/// Cluster-cyclic never packs a cluster tighter than NUMA-cyclic does
/// (the L2-sharing advantage the paper's Table 3 measures).
#[test]
fn cluster_cyclic_spreads_at_least_as_well() {
    run_cases(256, |g| {
        let topo = topology(g);
        let n_threads = thread_count(g, &topo);
        let cyclic = PlacementPolicy::NumaCyclic.map(&topo, n_threads);
        let cluster = PlacementPolicy::ClusterCyclic.map(&topo, n_threads);
        assert!(
            cluster.max_threads_per_cluster() <= cyclic.max_threads_per_cluster(),
            "cluster {:?} vs cyclic {:?}",
            cluster.threads_per_cluster,
            cyclic.threads_per_cluster
        );
    });
}

/// On the SG2042's real (interleaved) topology, all of the above hold
/// at every thread count, and full occupancy covers every core.
#[test]
fn sg2042_placements_hold_at_every_thread_count() {
    let topo = Topology::sg2042();
    for n_threads in 1..=64 {
        for policy in PlacementPolicy::ALL {
            let p = policy.map(&topo, n_threads);
            let mut cores = p.cores.clone();
            cores.sort_unstable();
            cores.dedup();
            assert_eq!(cores.len(), n_threads, "{policy} duplicates");
        }
    }
}
