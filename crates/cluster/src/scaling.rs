//! Weak- and strong-scaling projections for a cluster of modelled nodes.
//!
//! Decomposition follows the standard practice for each kernel shape:
//! stencils get a 1D slab decomposition (two halo faces per rank, except
//! HEAT_3D's slabs which also exchange two faces — the faces are just
//! bigger), reductions add an allreduce per repetition.

use crate::collectives::{allreduce_seconds, halo_exchange_seconds};
use crate::network::Network;
use rvhpc_kernels::KernelName;
use rvhpc_machines::{catalog, MachineId};
use rvhpc_perfmodel::{sim_size, Model, Precision, RowEnv, RunConfig};
use rvhpc_trace::json::Json;

/// Weak or strong scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// Constant per-node problem; ideal time is flat.
    Weak,
    /// Constant global problem; ideal time is T(1)/N.
    Strong,
}

impl ScalingMode {
    /// The wire token (`"weak"` / `"strong"`).
    pub fn token(self) -> &'static str {
        match self {
            ScalingMode::Weak => "weak",
            ScalingMode::Strong => "strong",
        }
    }

    /// Parse a wire token, case-insensitively.
    pub fn from_token(token: &str) -> Option<ScalingMode> {
        match token.to_ascii_lowercase().as_str() {
            "weak" => Some(ScalingMode::Weak),
            "strong" => Some(ScalingMode::Strong),
            _ => None,
        }
    }
}

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ClusterPoint {
    /// Node count.
    pub nodes: u32,
    /// Seconds per repetition (compute + communication).
    pub seconds: f64,
    /// Compute-only component.
    pub compute_seconds: f64,
    /// Communication component.
    pub comm_seconds: f64,
    /// Parallel efficiency against the single-node point.
    pub efficiency: f64,
}

impl ClusterPoint {
    /// Render as a JSON object. The workspace renderer prints floats at
    /// shortest-round-trip precision, so [`ClusterPoint::from_json`] on the
    /// rendered text recovers every field bit-for-bit.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nodes", Json::Num(f64::from(self.nodes))),
            ("seconds", Json::Num(self.seconds)),
            ("compute_seconds", Json::Num(self.compute_seconds)),
            ("comm_seconds", Json::Num(self.comm_seconds)),
            ("efficiency", Json::Num(self.efficiency)),
        ])
    }

    /// Parse a point previously rendered by [`ClusterPoint::to_json`].
    pub fn from_json(doc: &Json) -> Result<ClusterPoint, String> {
        let num = |field: &str| {
            doc.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cluster point: missing numeric `{field}`"))
        };
        let nodes = num("nodes")?;
        if nodes < 1.0 || nodes.fract() != 0.0 || nodes > f64::from(u32::MAX) {
            return Err(format!("cluster point: `nodes` must be a positive integer, got {nodes}"));
        }
        Ok(ClusterPoint {
            nodes: nodes as u32,
            seconds: num("seconds")?,
            compute_seconds: num("compute_seconds")?,
            comm_seconds: num("comm_seconds")?,
            efficiency: num("efficiency")?,
        })
    }
}

/// Render a whole curve as a JSON array of point objects.
pub fn curve_to_json(points: &[ClusterPoint]) -> Json {
    Json::Arr(points.iter().map(ClusterPoint::to_json).collect())
}

/// Parse a curve rendered by [`curve_to_json`].
pub fn curve_from_json(doc: &Json) -> Result<Vec<ClusterPoint>, String> {
    doc.as_arr()
        .ok_or_else(|| "cluster curve: expected an array of points".to_string())?
        .iter()
        .map(ClusterPoint::from_json)
        .collect()
}

/// Halo bytes per face for a slab decomposition of the kernel's domain at a
/// local problem size, plus whether a per-rep allreduce is needed.
fn comm_shape(kernel: KernelName, local_size: usize, elem_bytes: f64) -> (u32, f64, bool) {
    use KernelName::*;
    match kernel {
        // 2D grid, slab of rows: face = one row = √n elements.
        JACOBI_2D | FDTD_2D | HYDRO_2D => (2, (local_size as f64).sqrt() * elem_bytes, false),
        // 3D grid, slab of planes: face = n^(2/3) elements.
        HEAT_3D => (2, (local_size as f64).powf(2.0 / 3.0) * elem_bytes, false),
        // 1D stencils: face = a handful of elements.
        JACOBI_1D | HYDRO_1D | FIR => (2, 16.0 * elem_bytes, false),
        // Dot products / reductions: allreduce only.
        STREAM_DOT | REDUCE_SUM | PI_REDUCE => (0, 0.0, true),
        // Embarrassingly parallel: no communication.
        _ => (0, 0.0, false),
    }
}

/// Project a scaling curve for a kernel on a homogeneous cluster.
///
/// `node` is the per-node machine, `threads` the threads per node,
/// `nodes_list` the cluster sizes to evaluate.
pub fn scaling_curve(
    node: MachineId,
    net: &Network,
    kernel: KernelName,
    mode: ScalingMode,
    precision: Precision,
    nodes_list: &[u32],
) -> Vec<ClusterPoint> {
    let m = catalog(node);
    let threads = m.n_cores();
    let cfg = if node.is_riscv() {
        RunConfig::sg2042_best(precision, threads)
    } else {
        RunConfig::x86(precision, threads)
    };
    let row = RowEnv::new(Model::paper(), m, &cfg);
    let base_size = sim_size(kernel);
    let elem_bytes = f64::from(precision.bytes());

    let single = row.estimate_sized(kernel, base_size).seconds;
    nodes_list
        .iter()
        .map(|&nodes| {
            let local_size = match mode {
                ScalingMode::Weak => base_size,
                ScalingMode::Strong => (base_size / nodes as usize).max(64),
            };
            let compute = row.estimate_sized(kernel, local_size).seconds;
            let (faces, face_bytes, needs_allreduce) = comm_shape(kernel, local_size, elem_bytes);
            let mut comm = 0.0;
            if nodes > 1 {
                if faces > 0 {
                    comm += halo_exchange_seconds(net, faces, face_bytes);
                }
                if needs_allreduce {
                    comm += allreduce_seconds(net, nodes, elem_bytes);
                }
            }
            let seconds = compute + comm;
            let ideal = match mode {
                ScalingMode::Weak => single,
                ScalingMode::Strong => single / nodes as f64,
            };
            ClusterPoint {
                nodes,
                seconds,
                compute_seconds: compute,
                comm_seconds: comm,
                efficiency: ideal / seconds,
            }
        })
        .collect()
}

/// Weak-scaling curve (constant per-node work).
pub fn weak_scaling(
    node: MachineId,
    net: &Network,
    kernel: KernelName,
    precision: Precision,
    nodes_list: &[u32],
) -> Vec<ClusterPoint> {
    scaling_curve(node, net, kernel, ScalingMode::Weak, precision, nodes_list)
}

/// Strong-scaling curve (constant global work).
pub fn strong_scaling(
    node: MachineId,
    net: &Network,
    kernel: KernelName,
    precision: Precision,
    nodes_list: &[u32],
) -> Vec<ClusterPoint> {
    scaling_curve(node, net, kernel, ScalingMode::Strong, precision, nodes_list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkKind;

    const NODES: [u32; 5] = [1, 2, 4, 16, 64];

    #[test]
    fn weak_scaling_stencil_is_near_ideal_on_hpc_fabric() {
        let net = NetworkKind::Slingshot.network();
        let pts =
            weak_scaling(MachineId::Sg2042, &net, KernelName::JACOBI_2D, Precision::Fp32, &NODES);
        let last = pts.last().unwrap();
        assert!(last.efficiency > 0.8, "SG2042 + Slingshot should weak-scale a stencil: {last:?}");
    }

    #[test]
    fn gigabit_ethernet_hurts_weak_scaling_more_than_ib() {
        let gbe = NetworkKind::GigabitEthernet.network();
        let ib = NetworkKind::InfinibandHdr.network();
        let e = |net| {
            weak_scaling(MachineId::Sg2042, &net, KernelName::HEAT_3D, Precision::Fp64, &NODES)
                .last()
                .unwrap()
                .efficiency
        };
        assert!(e(gbe) < e(ib), "GbE must trail InfiniBand");
    }

    #[test]
    fn strong_scaling_eventually_goes_communication_bound() {
        // On slow Ethernet, shrinking local domains make halo cost dominate.
        let net = NetworkKind::GigabitEthernet.network();
        let pts = strong_scaling(
            MachineId::Sg2042,
            &net,
            KernelName::JACOBI_2D,
            Precision::Fp32,
            &[1, 2, 4, 16, 64, 256],
        );
        let last = pts.last().unwrap();
        assert!(
            last.comm_seconds > last.compute_seconds,
            "256 nodes on GbE must be communication bound: {last:?}"
        );
        assert!(last.efficiency < 0.5);
    }

    #[test]
    fn allreduce_kernels_scale_weakly_even_on_slow_networks() {
        // DOT's 8-byte allreduce is cheap even on Ethernet.
        let net = NetworkKind::GigabitEthernet.network();
        let pts =
            weak_scaling(MachineId::Sg2042, &net, KernelName::STREAM_DOT, Precision::Fp64, &NODES);
        assert!(pts.last().unwrap().efficiency > 0.7, "{:?}", pts.last());
    }

    #[test]
    fn single_node_has_no_communication() {
        let net = NetworkKind::GigabitEthernet.network();
        for kernel in [KernelName::JACOBI_2D, KernelName::STREAM_DOT] {
            let pts = weak_scaling(MachineId::Sg2042, &net, kernel, Precision::Fp32, &[1]);
            assert_eq!(pts[0].comm_seconds, 0.0, "{kernel}");
            assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn curve_json_round_trip_is_bit_exact() {
        let net = NetworkKind::InfinibandHdr.network();
        let pts =
            strong_scaling(MachineId::Sg2042, &net, KernelName::HEAT_3D, Precision::Fp64, &NODES);
        let text = curve_to_json(&pts).render();
        let back = curve_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), pts.len());
        for (a, b) in pts.iter().zip(&back) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
            assert_eq!(a.compute_seconds.to_bits(), b.compute_seconds.to_bits());
            assert_eq!(a.comm_seconds.to_bits(), b.comm_seconds.to_bits());
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
        }
    }

    #[test]
    fn point_parser_rejects_malformed_documents() {
        assert!(ClusterPoint::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad =
            r#"{"nodes":0.5,"seconds":1,"compute_seconds":1,"comm_seconds":0,"efficiency":1}"#;
        assert!(ClusterPoint::from_json(&Json::parse(bad).unwrap()).is_err());
        assert!(ScalingMode::from_token("WEAK") == Some(ScalingMode::Weak));
        assert!(ScalingMode::from_token("diagonal").is_none());
    }

    #[test]
    fn rome_nodes_need_fewer_nodes_for_the_same_strong_scaled_time() {
        // Per-node performance differences carry over to the cluster.
        let net = NetworkKind::Slingshot.network();
        let sg =
            strong_scaling(MachineId::Sg2042, &net, KernelName::HEAT_3D, Precision::Fp64, &[16]);
        let rome =
            strong_scaling(MachineId::AmdRome, &net, KernelName::HEAT_3D, Precision::Fp64, &[16]);
        assert!(rome[0].seconds < sg[0].seconds);
    }
}
