//! Stable machine identifiers.

use std::fmt;

/// Every CPU evaluated by the paper, as a stable identifier.
///
/// The identifier is used to key calibration tables in `rvhpc-perfmodel` and
/// to select machines on the `repro` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MachineId {
    /// Sophon SG2042, 64 × T-Head XuanTie C920 @ 2.0 GHz (the paper's subject).
    Sg2042,
    /// StarFive VisionFive V1 (JH7100 SoC, 2 × SiFive U74 @ 1.5 GHz).
    VisionFiveV1,
    /// StarFive VisionFive V2 (JH7110 SoC, 4 × SiFive U74 @ 1.5 GHz).
    VisionFiveV2,
    /// AMD Rome EPYC 7742, 64 cores @ 2.25 GHz, AVX2 (ARCHER2).
    AmdRome,
    /// Intel Broadwell Xeon E5-2695, 18 cores @ 2.1 GHz, AVX2 (Cirrus).
    IntelBroadwell,
    /// Intel Icelake Xeon 6330, 28 cores @ 2.0 GHz, AVX-512.
    IntelIcelake,
    /// Intel Sandybridge Xeon E5-2609, 4 cores @ 2.4 GHz, AVX (2012).
    IntelSandybridge,
    /// Hypothetical next-generation SG2042 with the improvements the
    /// paper's conclusion calls for: RVV v1.0, FP64 vectorisation, 256-bit
    /// registers, larger L1, and two memory controllers per NUMA region.
    /// Not part of the paper's machine set ([`MachineId::ALL`]); used by
    /// the `next_gen` what-if experiment.
    Sg2042NextGen,
}

impl MachineId {
    /// All identifiers in paper order (RISC-V first, then Table 4 order).
    pub const ALL: [MachineId; 7] = [
        MachineId::Sg2042,
        MachineId::VisionFiveV1,
        MachineId::VisionFiveV2,
        MachineId::AmdRome,
        MachineId::IntelBroadwell,
        MachineId::IntelIcelake,
        MachineId::IntelSandybridge,
    ];

    /// Every identifier the catalog holds, in discriminant order:
    /// [`MachineId::ALL`] and then the what-if machine.
    pub const CATALOG: [MachineId; 8] = [
        MachineId::Sg2042,
        MachineId::VisionFiveV1,
        MachineId::VisionFiveV2,
        MachineId::AmdRome,
        MachineId::IntelBroadwell,
        MachineId::IntelIcelake,
        MachineId::IntelSandybridge,
        MachineId::Sg2042NextGen,
    ];

    /// True for the RISC-V machines.
    pub fn is_riscv(self) -> bool {
        matches!(
            self,
            MachineId::Sg2042
                | MachineId::VisionFiveV1
                | MachineId::VisionFiveV2
                | MachineId::Sg2042NextGen
        )
    }

    /// True for the four x86 machines of Table 4.
    pub fn is_x86(self) -> bool {
        !self.is_riscv()
    }

    /// Short lowercase token used on the command line (`repro --machine`).
    pub fn token(self) -> &'static str {
        match self {
            MachineId::Sg2042 => "sg2042",
            MachineId::VisionFiveV1 => "visionfive-v1",
            MachineId::VisionFiveV2 => "visionfive-v2",
            MachineId::AmdRome => "amd-rome",
            MachineId::IntelBroadwell => "intel-broadwell",
            MachineId::IntelIcelake => "intel-icelake",
            MachineId::IntelSandybridge => "intel-sandybridge",
            MachineId::Sg2042NextGen => "sg2042-next-gen",
        }
    }

    /// Parse a command line token back into an identifier (the what-if
    /// machine included).
    pub fn from_token(tok: &str) -> Option<MachineId> {
        MachineId::CATALOG.into_iter().find(|m| m.token() == tok)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for id in MachineId::ALL {
            assert_eq!(MachineId::from_token(id.token()), Some(id));
        }
    }

    #[test]
    fn riscv_x86_partition() {
        // The paper's machine set: three RISC-V, four x86. The what-if
        // machine stays outside ALL.
        let riscv = MachineId::ALL.iter().filter(|m| m.is_riscv()).count();
        let x86 = MachineId::ALL.iter().filter(|m| m.is_x86()).count();
        assert_eq!(riscv, 3);
        assert_eq!(x86, 4);
        assert!(!MachineId::ALL.contains(&MachineId::Sg2042NextGen));
        assert!(MachineId::Sg2042NextGen.is_riscv());
    }

    #[test]
    fn unknown_token_rejected() {
        assert_eq!(MachineId::from_token("sg2043"), None);
    }
}
