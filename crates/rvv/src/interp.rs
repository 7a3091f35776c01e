//! A functional interpreter for the mini-ISA, faithful to each dialect's
//! semantics where they differ.
//!
//! * VLEN is 128 bits — the XuanTie C920's vector register width.
//! * Under v1.0 with `ta` (tail agnostic), tail elements are filled with
//!   all-ones after every vector write, as the spec permits; under v0.7.1
//!   (and v1.0 `tu`) tails are undisturbed. Filling with ones (rather than
//!   leaving them) is deliberately adversarial: any rewrite that silently
//!   relies on tail contents fails the equivalence property tests.
//! * FP64 vector arithmetic raises [`ExecError::UnsupportedFp64`] under
//!   v0.7.1 — the C920 behaviour the paper demonstrates.
//!
//! The interpreter counts executed instructions (total and vector), which
//! the performance model uses as the instruction-level cost input for
//! compiler-generated loops.

use crate::dialect::{Dialect, Lmul, Sew};
use crate::inst::{BranchCond, Inst, OpClass, Program, VfBinOp, ViBinOp};
use std::collections::HashMap;

/// Vector register width in bits (C920 VLEN).
pub const VLEN_BITS: usize = 128;
/// Vector register width in bytes.
pub const VLEN_BYTES: usize = VLEN_BITS / 8;
/// Largest byte span one vector operand group can cover (LMUL = 8).
const MAX_GROUP_BYTES: usize = 8 * VLEN_BYTES;

/// How vector instructions execute their active `vl` strip.
///
/// Both modes are bit-identical by construction (the `strip-interp` verify
/// oracle pins the equivalence over every codegen kernel and rollback);
/// [`ExecMode::Strip`] is the default because it matches on the element
/// width once per instruction and then runs a tight typed loop over the
/// whole strip, instead of paying the per-element register/offset
/// arithmetic of the lane-at-a-time reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Strip-wise dispatch: one opcode/SEW match per instruction, then a
    /// typed inner loop over whole register segments. Falls back to
    /// lane-at-a-time for the rare operand aliasing shapes whose semantics
    /// are order-dependent (e.g. a destination group overlapping the mask
    /// register or a source at an offset).
    #[default]
    Strip,
    /// The lane-at-a-time reference: every element individually located,
    /// read and written. Kept as the semantic baseline the strip path is
    /// differentially verified against.
    Lanewise,
}

/// Execution failure.
#[allow(missing_docs)] // variant docs explain; fields are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Branch/jump to an unknown label.
    UnknownLabel(String),
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// A memory access fell outside the machine's memory.
    MemOutOfBounds { addr: u64, len: usize },
    /// FP64 vector arithmetic attempted under v0.7.1 (C920 restriction).
    UnsupportedFp64 { inst: String },
    /// Vector instruction before any `vsetvli`.
    NoVtype,
    /// Duplicate label in the program.
    BadProgram(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownLabel(l) => write!(f, "unknown label `{l}`"),
            ExecError::StepLimit => write!(f, "step limit exhausted"),
            ExecError::MemOutOfBounds { addr, len } => {
                write!(f, "memory access out of bounds: {len} bytes at {addr:#x}")
            }
            ExecError::UnsupportedFp64 { inst } => {
                write!(f, "FP64 vector op `{inst}` unsupported in RVV v0.7.1 (C920)")
            }
            ExecError::NoVtype => write!(f, "vector instruction before vsetvli"),
            ExecError::BadProgram(m) => write!(f, "bad program: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Machine state: scalar registers, 32 × 128-bit vector registers, memory.
#[derive(Debug, Clone)]
pub struct Machine {
    dialect: Dialect,
    x: [u64; 32],
    f: [f64; 32],
    v: [[u8; VLEN_BYTES]; 32],
    mem: Vec<u8>,
    vl: usize,
    vtype: Option<(Sew, Lmul, bool)>, // (sew, lmul, tail_agnostic)
    /// Index of the instruction most recently dispatched by `run` — on an
    /// [`ExecError`], the failing instruction.
    last_pc: Option<usize>,
    /// Total instructions executed by [`Machine::run`].
    pub executed: u64,
    /// Vector instructions executed.
    pub executed_vector: u64,
    /// Instructions retired per [`OpClass`], indexed by [`OpClass::index`].
    pub retired_by_class: [u64; OpClass::ALL.len()],
    /// Bytes moved through memory by every executed load/store: `vl × EW`
    /// per vector memory op, 4/8 per scalar FP load. This is the dynamic
    /// counterpart of the static analyser's `mem_bytes_bound`.
    pub mem_bytes: u64,
    /// When enabled, every memory access as `(addr, len)`, in order.
    touched_log: Option<Vec<(u64, usize)>>,
    /// Strip-wise or lane-at-a-time vector execution.
    exec_mode: ExecMode,
}

impl Machine {
    /// A machine with `mem_bytes` of zeroed memory.
    pub fn new(dialect: Dialect, mem_bytes: usize) -> Self {
        Machine {
            dialect,
            x: [0; 32],
            f: [0.0; 32],
            v: [[0; VLEN_BYTES]; 32],
            mem: vec![0; mem_bytes],
            vl: 0,
            vtype: None,
            last_pc: None,
            executed: 0,
            executed_vector: 0,
            retired_by_class: [0; OpClass::ALL.len()],
            mem_bytes: 0,
            touched_log: None,
            exec_mode: ExecMode::default(),
        }
    }

    /// Select strip-wise or lane-at-a-time vector execution (the two are
    /// bit-identical; see [`ExecMode`]).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The active execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Start recording every memory access as `(addr, len)`; the
    /// bounds-soundness oracle uses the log to check inferred per-buffer
    /// spans against reality.
    pub fn enable_mem_tracking(&mut self) {
        self.touched_log = Some(Vec::new());
    }

    /// The recorded memory accesses, if tracking was enabled.
    pub fn touched_accesses(&self) -> Option<&[(u64, usize)]> {
        self.touched_log.as_deref()
    }

    /// Account one successful memory access.
    fn note_mem(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.mem_bytes = self.mem_bytes.saturating_add(len as u64);
        if let Some(log) = &mut self.touched_log {
            log.push((addr, len));
        }
    }

    /// Dialect this machine executes.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Read a scalar register (`x0` reads zero).
    pub fn x(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.x[r as usize]
        }
    }

    /// Write a scalar register (`x0` writes are ignored).
    pub fn set_x(&mut self, r: u8, val: u64) {
        if r != 0 {
            self.x[r as usize] = val;
        }
    }

    /// Read an FP register.
    pub fn f(&self, r: u8) -> f64 {
        self.f[r as usize]
    }

    /// Write an FP register.
    pub fn set_f(&mut self, r: u8, val: f64) {
        self.f[r as usize] = val;
    }

    /// Current `vl`.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Instruction index most recently dispatched by [`Machine::run`].
    /// After an [`ExecError`] this is the failing instruction, so callers
    /// can map the failure to a source line via a
    /// [`crate::parse::SourceMap`].
    pub fn last_pc(&self) -> Option<usize> {
        self.last_pc
    }

    /// Raw memory view.
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// Write a slice of `f32` values at a byte address.
    pub fn write_f32s(&mut self, addr: usize, vals: &[f32]) {
        for (i, v) in vals.iter().enumerate() {
            self.mem[addr + i * 4..addr + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read `n` `f32` values from a byte address.
    pub fn read_f32s(&self, addr: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let b = &self.mem[addr + i * 4..addr + i * 4 + 4];
                f32::from_le_bytes([b[0], b[1], b[2], b[3]])
            })
            .collect()
    }

    /// Write a slice of `f64` values at a byte address.
    pub fn write_f64s(&mut self, addr: usize, vals: &[f64]) {
        for (i, v) in vals.iter().enumerate() {
            self.mem[addr + i * 8..addr + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read `n` `f64` values from a byte address.
    pub fn read_f64s(&self, addr: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let b = &self.mem[addr + i * 8..addr + i * 8 + 8];
                f64::from_le_bytes(b.try_into().expect("8 bytes"))
            })
            .collect()
    }

    fn vtype(&self) -> Result<(Sew, Lmul, bool), ExecError> {
        self.vtype.ok_or(ExecError::NoVtype)
    }

    /// Elements per vector register at a SEW.
    fn elems_per_reg(sew: Sew) -> usize {
        VLEN_BYTES / sew.bytes()
    }

    /// VLMAX for a vtype.
    fn vlmax(sew: Sew, lmul: Lmul) -> usize {
        ((Self::elems_per_reg(sew) as f64) * lmul.ratio()).floor().max(1.0) as usize
    }

    fn read_elem(&self, base: u8, idx: usize, sew: Sew) -> u64 {
        let epr = Self::elems_per_reg(sew);
        let reg = base as usize + idx / epr;
        let off = (idx % epr) * sew.bytes();
        let mut buf = [0u8; 8];
        buf[..sew.bytes()].copy_from_slice(&self.v[reg & 31][off..off + sew.bytes()]);
        u64::from_le_bytes(buf)
    }

    fn write_elem(&mut self, base: u8, idx: usize, sew: Sew, val: u64) {
        let epr = Self::elems_per_reg(sew);
        let reg = base as usize + idx / epr;
        let off = (idx % epr) * sew.bytes();
        self.v[reg & 31][off..off + sew.bytes()].copy_from_slice(&val.to_le_bytes()[..sew.bytes()]);
    }

    /// Apply tail policy after writing `vl` elements of a destination group.
    fn apply_tail(&mut self, base: u8, sew: Sew, lmul: Lmul, tail_agnostic: bool) {
        let vlmax = Self::vlmax(sew, lmul);
        if self.dialect == Dialect::V10 && tail_agnostic {
            if self.exec_mode == ExecMode::Strip {
                // All-ones fill is byte-wise, so the tail strip is a plain
                // byte fill per register segment (identical to writing
                // `u64::MAX` per element).
                let epr = Self::elems_per_reg(sew);
                let mut idx = self.vl;
                while idx < vlmax {
                    let reg = (base as usize + idx / epr) & 31;
                    let start = (idx % epr) * sew.bytes();
                    let take = (epr - idx % epr).min(vlmax - idx);
                    self.v[reg][start..start + take * sew.bytes()].fill(0xFF);
                    idx += take;
                }
            } else {
                for idx in self.vl..vlmax {
                    self.write_elem(base, idx, sew, u64::MAX);
                }
            }
        }
        // v0.7.1 and v1.0 `tu`: tail undisturbed — nothing to do.
    }

    fn load_mem(&self, addr: u64, len: usize) -> Result<&[u8], ExecError> {
        let a = addr as usize;
        if a.checked_add(len).map(|e| e <= self.mem.len()) != Some(true) {
            return Err(ExecError::MemOutOfBounds { addr, len });
        }
        Ok(&self.mem[a..a + len])
    }

    fn check_mem(&self, addr: u64, len: usize) -> Result<(), ExecError> {
        let a = addr as usize;
        if a.checked_add(len).map(|e| e <= self.mem.len()) != Some(true) {
            return Err(ExecError::MemOutOfBounds { addr, len });
        }
        Ok(())
    }

    /// FP op on raw element bits at a SEW.
    fn fp_bin(sew: Sew, op: VfBinOp, a: u64, b: u64) -> u64 {
        match sew {
            Sew::E32 => {
                let x = f32::from_bits(a as u32);
                let y = f32::from_bits(b as u32);
                Self::apply_f32(op, x, y).to_bits() as u64
            }
            Sew::E64 => {
                let x = f64::from_bits(a);
                let y = f64::from_bits(b);
                Self::apply_f64(op, x, y).to_bits()
            }
            // FP on sub-32-bit SEW is out of scope for the suite.
            _ => 0,
        }
    }

    fn apply_f32(op: VfBinOp, x: f32, y: f32) -> f32 {
        match op {
            VfBinOp::Add => x + y,
            VfBinOp::Sub => x - y,
            VfBinOp::Mul => x * y,
            VfBinOp::Div => x / y,
            VfBinOp::Min => x.min(y),
            VfBinOp::Max => x.max(y),
        }
    }

    fn apply_f64(op: VfBinOp, x: f64, y: f64) -> f64 {
        match op {
            VfBinOp::Add => x + y,
            VfBinOp::Sub => x - y,
            VfBinOp::Mul => x * y,
            VfBinOp::Div => x / y,
            VfBinOp::Min => x.min(y),
            VfBinOp::Max => x.max(y),
        }
    }

    /// Fused multiply-add on raw element bits: `acc + a*b`.
    fn fma_bits(sew: Sew, acc: u64, a: u64, b: u64) -> u64 {
        match sew {
            Sew::E32 => {
                let r = f32::from_bits(a as u32)
                    .mul_add(f32::from_bits(b as u32), f32::from_bits(acc as u32));
                r.to_bits() as u64
            }
            Sew::E64 => {
                let r = f64::from_bits(a).mul_add(f64::from_bits(b), f64::from_bits(acc));
                r.to_bits()
            }
            _ => 0,
        }
    }

    fn int_bin(sew: Sew, op: ViBinOp, a: u64, b: u64) -> u64 {
        let mask = if sew.bits() == 64 { u64::MAX } else { (1u64 << sew.bits()) - 1 };
        let r = match op {
            ViBinOp::Add => a.wrapping_add(b),
            ViBinOp::Sub => a.wrapping_sub(b),
            ViBinOp::Mul => a.wrapping_mul(b),
            ViBinOp::And => a & b,
            ViBinOp::Or => a | b,
            ViBinOp::Xor => a ^ b,
        };
        r & mask
    }

    /// Refuse FP64 vector arithmetic under v0.7.1 (the C920 restriction).
    fn guard_fp64(&self, sew: Sew, what: &str) -> Result<(), ExecError> {
        if self.dialect == Dialect::V071 && sew == Sew::E64 {
            return Err(ExecError::UnsupportedFp64 { inst: what.to_string() });
        }
        Ok(())
    }

    /// Instructions retired in one opcode class so far.
    pub fn retired(&self, class: OpClass) -> u64 {
        self.retired_by_class[class.index()]
    }

    /// Execute a program until `Ret` or the step limit. With tracing
    /// enabled, the run's per-class retirement deltas are published as
    /// `rvv.retired.<class>` counters.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> Result<(), ExecError> {
        self.run_fueled(program, max_steps).map(|_| ())
    }

    /// Execute with a hard fuel bound; on success returns the number of
    /// interpreter steps the run took (every dispatched instruction,
    /// labels included — the quantity the static analyser's `step_bound`
    /// over-approximates). The admission pipeline calls this with fuel
    /// derived from the bound, so a kernel that was admitted on a bad
    /// bound fails with [`ExecError::StepLimit`] instead of running away.
    pub fn run_fueled(&mut self, program: &Program, fuel: u64) -> Result<u64, ExecError> {
        let _span = rvhpc_trace::span!(
            "rvv.run",
            insts = program.len_insts(),
            dialect = format!("{:?}", self.dialect),
        );
        let before = rvhpc_trace::enabled().then_some(self.retired_by_class);
        let result = self.run_inner(program, fuel);
        if let Some(before) = before {
            for class in OpClass::ALL {
                let delta = self.retired_by_class[class.index()] - before[class.index()];
                rvhpc_obs::counter(class.counter_name())
                    .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
            }
        }
        result
    }

    #[allow(clippy::too_many_lines)]
    fn run_inner(&mut self, program: &Program, max_steps: u64) -> Result<u64, ExecError> {
        let labels: HashMap<String, usize> = program.label_map().map_err(ExecError::BadProgram)?;
        let mut pc = 0usize;
        let mut steps = 0u64;
        while pc < program.insts.len() {
            if steps >= max_steps {
                return Err(ExecError::StepLimit);
            }
            steps += 1;
            self.last_pc = Some(pc);
            let inst = &program.insts[pc];
            if let Some(class) = inst.op_class() {
                self.executed += 1;
                self.retired_by_class[class.index()] += 1;
                if inst.is_vector() {
                    self.executed_vector += 1;
                }
            }
            match inst {
                Inst::Label(_) => {}
                Inst::Ret => return Ok(steps),
                Inst::Li { rd, imm } => self.set_x(rd.0, *imm as u64),
                Inst::Mv { rd, rs } => self.set_x(rd.0, self.x(rs.0)),
                Inst::Add { rd, rs1, rs2 } => {
                    self.set_x(rd.0, self.x(rs1.0).wrapping_add(self.x(rs2.0)));
                }
                Inst::Addi { rd, rs1, imm } => {
                    self.set_x(rd.0, self.x(rs1.0).wrapping_add(*imm as u64));
                }
                Inst::Sub { rd, rs1, rs2 } => {
                    self.set_x(rd.0, self.x(rs1.0).wrapping_sub(self.x(rs2.0)));
                }
                Inst::Mul { rd, rs1, rs2 } => {
                    self.set_x(rd.0, self.x(rs1.0).wrapping_mul(self.x(rs2.0)));
                }
                Inst::Slli { rd, rs1, shamt } => {
                    self.set_x(rd.0, self.x(rs1.0) << shamt);
                }
                Inst::Branch { cond, rs1, rs2, target } => {
                    let a = self.x(rs1.0) as i64;
                    let b = self.x(rs2.0) as i64;
                    let taken = match cond {
                        BranchCond::Eq => a == b,
                        BranchCond::Ne => a != b,
                        BranchCond::Lt => a < b,
                        BranchCond::Ge => a >= b,
                    };
                    if taken {
                        pc = *labels
                            .get(target)
                            .ok_or_else(|| ExecError::UnknownLabel(target.clone()))?;
                        continue;
                    }
                }
                Inst::Jump { target } => {
                    pc = *labels
                        .get(target)
                        .ok_or_else(|| ExecError::UnknownLabel(target.clone()))?;
                    continue;
                }
                Inst::Flw { fd, rs1, imm } => {
                    let addr = self.x(rs1.0).wrapping_add(*imm as u64);
                    let b = self.load_mem(addr, 4)?;
                    let v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                    self.set_f(fd.0, v as f64);
                    self.note_mem(addr, 4);
                }
                Inst::Fld { fd, rs1, imm } => {
                    let addr = self.x(rs1.0).wrapping_add(*imm as u64);
                    let b = self.load_mem(addr, 8)?;
                    let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
                    self.set_f(fd.0, v);
                    self.note_mem(addr, 8);
                }
                Inst::Vsetvli { rd, rs1, sew, lmul, tail_agnostic, .. } => {
                    let avl = self.x(rs1.0) as usize;
                    let vlmax = Self::vlmax(*sew, *lmul);
                    self.vl = avl.min(vlmax);
                    self.vtype = Some((*sew, *lmul, *tail_agnostic));
                    self.set_x(rd.0, self.vl as u64);
                }
                Inst::Vle { vd, rs1, eew } => {
                    let (_, lmul, ta) = self.vtype()?;
                    let base = self.x(rs1.0);
                    self.check_mem(base, self.vl * eew.bytes())?;
                    self.note_mem(base, self.vl * eew.bytes());
                    if self.exec_mode == ExecMode::Strip {
                        self.strip_vle(vd.0, base, *eew);
                    } else {
                        for i in 0..self.vl {
                            let b = self.load_mem(base + (i * eew.bytes()) as u64, eew.bytes())?;
                            let mut buf = [0u8; 8];
                            buf[..eew.bytes()].copy_from_slice(b);
                            self.write_elem(vd.0, i, *eew, u64::from_le_bytes(buf));
                        }
                    }
                    self.apply_tail(vd.0, *eew, lmul, ta);
                }
                Inst::Vse { vs, rs1, eew } => {
                    let base = self.x(rs1.0);
                    self.check_mem(base, self.vl * eew.bytes())?;
                    self.note_mem(base, self.vl * eew.bytes());
                    if self.exec_mode == ExecMode::Strip {
                        self.strip_vse(vs.0, base, *eew);
                    } else {
                        for i in 0..self.vl {
                            let val = self.read_elem(vs.0, i, *eew);
                            let a = (base as usize) + i * eew.bytes();
                            self.mem[a..a + eew.bytes()]
                                .copy_from_slice(&val.to_le_bytes()[..eew.bytes()]);
                        }
                    }
                }
                Inst::Vlse { vd, rs1, stride, eew } => {
                    let (_, lmul, ta) = self.vtype()?;
                    let base = self.x(rs1.0);
                    let st = self.x(stride.0);
                    for i in 0..self.vl {
                        let addr = base.wrapping_add(st.wrapping_mul(i as u64));
                        let b = self.load_mem(addr, eew.bytes())?;
                        let mut buf = [0u8; 8];
                        buf[..eew.bytes()].copy_from_slice(b);
                        self.write_elem(vd.0, i, *eew, u64::from_le_bytes(buf));
                        self.note_mem(addr, eew.bytes());
                    }
                    self.apply_tail(vd.0, *eew, lmul, ta);
                }
                Inst::Vsse { vs, rs1, stride, eew } => {
                    let base = self.x(rs1.0);
                    let st = self.x(stride.0);
                    for i in 0..self.vl {
                        let addr = base.wrapping_add(st.wrapping_mul(i as u64));
                        self.check_mem(addr, eew.bytes())?;
                        self.note_mem(addr, eew.bytes());
                        let val = self.read_elem(vs.0, i, *eew);
                        let a = addr as usize;
                        self.mem[a..a + eew.bytes()]
                            .copy_from_slice(&val.to_le_bytes()[..eew.bytes()]);
                    }
                }
                Inst::VfVV { op, vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, op.stem())?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_fp_vv(*op, vd.0, vs1.0, vs2.0, sew)
                    {
                        for i in 0..self.vl {
                            let a = self.read_elem(vs1.0, i, sew);
                            let b = self.read_elem(vs2.0, i, sew);
                            self.write_elem(vd.0, i, sew, Self::fp_bin(sew, *op, a, b));
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfVF { op, vd, vs1, fs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, op.stem())?;
                    let scalar = self.scalar_bits(fs2.0, sew);
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_fp_vf(*op, vd.0, vs1.0, scalar, sew)
                    {
                        for i in 0..self.vl {
                            let a = self.read_elem(vs1.0, i, sew);
                            self.write_elem(vd.0, i, sew, Self::fp_bin(sew, *op, a, scalar));
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmaccVV { vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmacc.vv")?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_fma(vd.0, Some(vs1.0), 0, vs2.0, sew)
                    {
                        for i in 0..self.vl {
                            let acc = self.read_elem(vd.0, i, sew);
                            let a = self.read_elem(vs1.0, i, sew);
                            let b = self.read_elem(vs2.0, i, sew);
                            self.write_elem(vd.0, i, sew, Self::fma_bits(sew, acc, a, b));
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmaccVF { vd, fs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmacc.vf")?;
                    let scalar = self.scalar_bits(fs1.0, sew);
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_fma(vd.0, None, scalar, vs2.0, sew)
                    {
                        for i in 0..self.vl {
                            let acc = self.read_elem(vd.0, i, sew);
                            let b = self.read_elem(vs2.0, i, sew);
                            self.write_elem(vd.0, i, sew, Self::fma_bits(sew, acc, scalar, b));
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::ViVV { op, vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_int_vv(*op, vd.0, vs1.0, vs2.0, sew)
                    {
                        for i in 0..self.vl {
                            let a = self.read_elem(vs1.0, i, sew);
                            let b = self.read_elem(vs2.0, i, sew);
                            self.write_elem(vd.0, i, sew, Self::int_bin(sew, *op, a, b));
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VaddVI { vd, vs1, imm } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_add_imm(vd.0, vs1.0, *imm as i64 as u64, sew)
                    {
                        for i in 0..self.vl {
                            let a = self.read_elem(vs1.0, i, sew);
                            self.write_elem(
                                vd.0,
                                i,
                                sew,
                                Self::int_bin(sew, ViBinOp::Add, a, *imm as i64 as u64),
                            );
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VmfltVF { vd, vs1, fs2 } | Inst::VmfgeVF { vd, vs1, fs2 } => {
                    let (sew, _, _) = self.vtype()?;
                    let is_lt = matches!(inst, Inst::VmfltVF { .. });
                    self.guard_fp64(sew, if is_lt { "vmflt.vf" } else { "vmfge.vf" })?;
                    let scalar = self.scalar_bits(fs2.0, sew);
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_cmp_vf(is_lt, vd.0, vs1.0, scalar, sew)
                    {
                        for i in 0..self.vl {
                            let a = self.read_elem(vs1.0, i, sew);
                            let cmp = match sew {
                                Sew::E32 => {
                                    let (x, y) =
                                        (f32::from_bits(a as u32), f32::from_bits(scalar as u32));
                                    if is_lt {
                                        x < y
                                    } else {
                                        x >= y
                                    }
                                }
                                Sew::E64 => {
                                    let (x, y) = (f64::from_bits(a), f64::from_bits(scalar));
                                    if is_lt {
                                        x < y
                                    } else {
                                        x >= y
                                    }
                                }
                                _ => false,
                            };
                            self.set_mask_bit(vd.0, i, cmp);
                        }
                    }
                }
                Inst::VmergeVVM { vd, vs2, vs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_merge(vd.0, vs1.0, vs2.0, sew)
                    {
                        for i in 0..self.vl {
                            let val = if self.mask_bit(i) {
                                self.read_elem(vs1.0, i, sew)
                            } else {
                                self.read_elem(vs2.0, i, sew)
                            };
                            self.write_elem(vd.0, i, sew, val);
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfsqrtV { vd, vs1, masked } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfsqrt.v")?;
                    if self.exec_mode == ExecMode::Lanewise
                        || !self.strip_sqrt(vd.0, vs1.0, *masked, sew)
                    {
                        for i in 0..self.vl {
                            if *masked && !self.mask_bit(i) {
                                continue; // inactive elements undisturbed (mu)
                            }
                            let a = self.read_elem(vs1.0, i, sew);
                            let r = match sew {
                                Sew::E32 => f32::from_bits(a as u32).sqrt().to_bits() as u64,
                                Sew::E64 => f64::from_bits(a).sqrt().to_bits(),
                                _ => 0,
                            };
                            self.write_elem(vd.0, i, sew, r);
                        }
                    }
                    if !*masked {
                        self.apply_tail(vd.0, sew, lmul, ta);
                    }
                }
                Inst::VmvVX { vd, rs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    let val = self.x(rs1.0);
                    if self.exec_mode == ExecMode::Strip {
                        self.strip_splat(vd.0, val, sew);
                    } else {
                        for i in 0..self.vl {
                            self.write_elem(vd.0, i, sew, val);
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmvVF { vd, fs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmv.v.f")?;
                    let val = self.scalar_bits(fs1.0, sew);
                    if self.exec_mode == ExecMode::Strip {
                        self.strip_splat(vd.0, val, sew);
                    } else {
                        for i in 0..self.vl {
                            self.write_elem(vd.0, i, sew, val);
                        }
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmvFS { fd, vs1 } => {
                    let (sew, _, _) = self.vtype()?;
                    let bits = self.read_elem(vs1.0, 0, sew);
                    let val = match sew {
                        Sew::E32 => f32::from_bits(bits as u32) as f64,
                        Sew::E64 => f64::from_bits(bits),
                        _ => 0.0,
                    };
                    self.set_f(fd.0, val);
                }
                Inst::Vfredusum { vd, vs1, vs2 } | Inst::Vfredosum { vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfredsum")?;
                    // Both reductions computed in element order: deterministic,
                    // and identical across dialects so rewrites stay provable.
                    // All source reads precede the single element-0 write, so
                    // the strip path needs no aliasing fallback.
                    if self.exec_mode == ExecMode::Strip {
                        self.strip_reduce(vd.0, vs1.0, vs2.0, sew);
                    } else {
                        match sew {
                            Sew::E32 => {
                                let mut acc = f32::from_bits(self.read_elem(vs2.0, 0, sew) as u32);
                                for i in 0..self.vl {
                                    acc += f32::from_bits(self.read_elem(vs1.0, i, sew) as u32);
                                }
                                self.write_elem(vd.0, 0, sew, acc.to_bits() as u64);
                            }
                            Sew::E64 => {
                                let mut acc = f64::from_bits(self.read_elem(vs2.0, 0, sew));
                                for i in 0..self.vl {
                                    acc += f64::from_bits(self.read_elem(vs1.0, i, sew));
                                }
                                self.write_elem(vd.0, 0, sew, acc.to_bits());
                            }
                            _ => {}
                        }
                    }
                    // Reduction writes element 0 only; tail policy applies to
                    // the rest of the destination register.
                    let saved_vl = self.vl;
                    self.vl = 1;
                    self.apply_tail(vd.0, sew, lmul, ta);
                    self.vl = saved_vl;
                }
            }
            pc += 1;
        }
        Ok(steps)
    }

    /// Read mask bit `i` of register v0 (LSB-packed, one bit per element).
    fn mask_bit(&self, i: usize) -> bool {
        (self.v[0][i / 8] >> (i % 8)) & 1 == 1
    }

    /// Write mask bit `i` of a mask destination register.
    fn set_mask_bit(&mut self, vd: u8, i: usize, val: bool) {
        let byte = &mut self.v[vd as usize & 31][i / 8];
        if val {
            *byte |= 1 << (i % 8);
        } else {
            *byte &= !(1 << (i % 8));
        }
    }

    /// Scalar FP register as raw bits at a SEW.
    fn scalar_bits(&self, fr: u8, sew: Sew) -> u64 {
        match sew {
            Sew::E32 => (self.f(fr) as f32).to_bits() as u64,
            Sew::E64 => self.f(fr).to_bits(),
            _ => 0,
        }
    }
}

/// Strip-wise execution: each helper consumes the whole active `vl` strip
/// with the element width matched once and a tight typed inner loop over
/// flat byte buffers, instead of per-element register/offset arithmetic.
///
/// Every helper is bit-identical to the lane-at-a-time loop it replaces.
/// Helpers that copy source groups up front return `false` — telling the
/// dispatcher to fall back to the lanewise reference — for the rare operand
/// aliasing shapes whose lanewise semantics are order-dependent: a source
/// group overlapping the destination at a register offset, or a destination
/// group covering the live mask register `v0`.
impl Machine {
    /// Registers covered by an `n`-element group at `base` (mod-32 wrap,
    /// exactly as `read_elem`/`write_elem` resolve them).
    fn group_regs(base: u8, n: usize, sew: Sew) -> impl Iterator<Item = usize> {
        let epr = Self::elems_per_reg(sew);
        let segs = n.div_ceil(epr);
        (0..segs).map(move |k| (base as usize + k) & 31)
    }

    /// Whether copying `src` up front preserves lanewise order: either the
    /// same base register (element `i` is always read before index `i` is
    /// written) or a group fully disjoint from the destination.
    fn strip_safe(vd: u8, src: u8, n: usize, sew: Sew) -> bool {
        vd == src
            || !Self::group_regs(vd, n, sew).any(|r| Self::group_regs(src, n, sew).any(|s| s == r))
    }

    /// Whether the destination group covers the mask register `v0`.
    fn covers_mask(vd: u8, n: usize, sew: Sew) -> bool {
        Self::group_regs(vd, n, sew).any(|r| r == 0)
    }

    /// Copy the first `n` elements of the group at `base` into `buf`;
    /// returns the strip's byte length.
    fn copy_group_out(
        &self,
        base: u8,
        n: usize,
        sew: Sew,
        buf: &mut [u8; MAX_GROUP_BYTES],
    ) -> usize {
        let epr = Self::elems_per_reg(sew);
        let mut done = 0;
        while done < n {
            let reg = (base as usize + done / epr) & 31;
            let take = epr.min(n - done);
            let bytes = take * sew.bytes();
            let dst = done * sew.bytes();
            buf[dst..dst + bytes].copy_from_slice(&self.v[reg][..bytes]);
            done += take;
        }
        n * sew.bytes()
    }

    /// Write the first `n` elements of `buf` into the group at `base`.
    fn copy_group_in(&mut self, base: u8, n: usize, sew: Sew, buf: &[u8]) {
        let epr = Self::elems_per_reg(sew);
        let mut done = 0;
        while done < n {
            let reg = (base as usize + done / epr) & 31;
            let take = epr.min(n - done);
            let bytes = take * sew.bytes();
            let src = done * sew.bytes();
            self.v[reg][..bytes].copy_from_slice(&buf[src..src + bytes]);
            done += take;
        }
    }

    /// Unit-stride load: one raw little-endian copy from memory into the
    /// destination group (bounds already checked for the whole strip).
    fn strip_vle(&mut self, vd: u8, base: u64, eew: Sew) {
        let n = self.vl;
        let len = n * eew.bytes();
        let mut buf = [0u8; MAX_GROUP_BYTES];
        buf[..len].copy_from_slice(&self.mem[base as usize..base as usize + len]);
        self.copy_group_in(vd, n, eew, &buf[..len]);
    }

    /// Unit-stride store: one raw little-endian copy from the source group
    /// into memory (bounds already checked for the whole strip).
    fn strip_vse(&mut self, vs: u8, base: u64, eew: Sew) {
        let n = self.vl;
        let mut buf = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs, n, eew, &mut buf);
        self.mem[base as usize..base as usize + len].copy_from_slice(&buf[..len]);
    }

    /// FP binary `vd[i] = op(vs1[i], vs2[i])` over the whole strip.
    fn strip_fp_vv(&mut self, op: VfBinOp, vd: u8, vs1: u8, vs2: u8, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew) || !Self::strip_safe(vd, vs2, n, sew) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut b = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        self.copy_group_out(vs2, n, sew, &mut b);
        match sew {
            Sew::E32 => {
                let lanes = out[..len].chunks_exact_mut(4).zip(a[..len].chunks_exact(4));
                for ((o, x), y) in lanes.zip(b[..len].chunks_exact(4)) {
                    let xv = f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                    let yv = f32::from_le_bytes(y.try_into().expect("4-byte lane"));
                    o.copy_from_slice(&Self::apply_f32(op, xv, yv).to_le_bytes());
                }
            }
            Sew::E64 => {
                let lanes = out[..len].chunks_exact_mut(8).zip(a[..len].chunks_exact(8));
                for ((o, x), y) in lanes.zip(b[..len].chunks_exact(8)) {
                    let xv = f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                    let yv = f64::from_le_bytes(y.try_into().expect("8-byte lane"));
                    o.copy_from_slice(&Self::apply_f64(op, xv, yv).to_le_bytes());
                }
            }
            // FP on sub-32-bit SEW yields zero bits (matching `fp_bin`);
            // `out` is pre-zeroed.
            _ => {}
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// FP vector-scalar binary over the whole strip.
    fn strip_fp_vf(&mut self, op: VfBinOp, vd: u8, vs1: u8, scalar: u64, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        match sew {
            Sew::E32 => {
                let yv = f32::from_bits(scalar as u32);
                for (o, x) in out[..len].chunks_exact_mut(4).zip(a[..len].chunks_exact(4)) {
                    let xv = f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                    o.copy_from_slice(&Self::apply_f32(op, xv, yv).to_le_bytes());
                }
            }
            Sew::E64 => {
                let yv = f64::from_bits(scalar);
                for (o, x) in out[..len].chunks_exact_mut(8).zip(a[..len].chunks_exact(8)) {
                    let xv = f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                    o.copy_from_slice(&Self::apply_f64(op, xv, yv).to_le_bytes());
                }
            }
            _ => {}
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// Fused multiply-add `vd[i] += vs1[i] * vs2[i]` (vector-vector) or
    /// `vd[i] += scalar * vs2[i]` (scalar via `a_scalar`).
    fn strip_fma(&mut self, vd: u8, a_src: Option<u8>, a_scalar: u64, vs2: u8, sew: Sew) -> bool {
        let n = self.vl;
        if let Some(vs1) = a_src {
            if !Self::strip_safe(vd, vs1, n, sew) {
                return false;
            }
        }
        if !Self::strip_safe(vd, vs2, n, sew) {
            return false;
        }
        let mut acc = [0u8; MAX_GROUP_BYTES];
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut b = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vd, n, sew, &mut acc);
        match a_src {
            Some(vs1) => {
                self.copy_group_out(vs1, n, sew, &mut a);
            }
            None => {
                for lane in a[..len].chunks_exact_mut(sew.bytes().max(1)) {
                    lane.copy_from_slice(&a_scalar.to_le_bytes()[..sew.bytes()]);
                }
            }
        }
        self.copy_group_out(vs2, n, sew, &mut b);
        match sew {
            Sew::E32 => {
                let lanes = acc[..len].chunks_exact_mut(4).zip(a[..len].chunks_exact(4));
                for ((o, x), y) in lanes.zip(b[..len].chunks_exact(4)) {
                    let xv = f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                    let yv = f32::from_le_bytes(y.try_into().expect("4-byte lane"));
                    let av = f32::from_le_bytes(o.as_ref().try_into().expect("4-byte lane"));
                    o.copy_from_slice(&xv.mul_add(yv, av).to_le_bytes());
                }
            }
            Sew::E64 => {
                let lanes = acc[..len].chunks_exact_mut(8).zip(a[..len].chunks_exact(8));
                for ((o, x), y) in lanes.zip(b[..len].chunks_exact(8)) {
                    let xv = f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                    let yv = f64::from_le_bytes(y.try_into().expect("8-byte lane"));
                    let av = f64::from_le_bytes(o.as_ref().try_into().expect("8-byte lane"));
                    o.copy_from_slice(&xv.mul_add(yv, av).to_le_bytes());
                }
            }
            // `fma_bits` yields zero on sub-32-bit SEW.
            _ => acc[..len].fill(0),
        }
        self.copy_group_in(vd, n, sew, &acc[..len]);
        true
    }

    /// Integer binary `vd[i] = op(vs1[i], vs2[i])` over the whole strip.
    fn strip_int_vv(&mut self, op: ViBinOp, vd: u8, vs1: u8, vs2: u8, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew) || !Self::strip_safe(vd, vs2, n, sew) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut b = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        self.copy_group_out(vs2, n, sew, &mut b);
        macro_rules! lanes {
            ($t:ty, $w:expr) => {{
                let it = out[..len].chunks_exact_mut($w).zip(a[..len].chunks_exact($w));
                for ((o, x), y) in it.zip(b[..len].chunks_exact($w)) {
                    let xv = <$t>::from_le_bytes(x.try_into().expect("lane"));
                    let yv = <$t>::from_le_bytes(y.try_into().expect("lane"));
                    let r = match op {
                        ViBinOp::Add => xv.wrapping_add(yv),
                        ViBinOp::Sub => xv.wrapping_sub(yv),
                        ViBinOp::Mul => xv.wrapping_mul(yv),
                        ViBinOp::And => xv & yv,
                        ViBinOp::Or => xv | yv,
                        ViBinOp::Xor => xv ^ yv,
                    };
                    o.copy_from_slice(&r.to_le_bytes());
                }
            }};
        }
        match sew {
            Sew::E8 => lanes!(u8, 1),
            Sew::E16 => lanes!(u16, 2),
            Sew::E32 => lanes!(u32, 4),
            Sew::E64 => lanes!(u64, 8),
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// Integer add-immediate over the whole strip.
    fn strip_add_imm(&mut self, vd: u8, vs1: u8, imm: u64, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        macro_rules! lanes {
            ($t:ty, $w:expr) => {{
                let iv = imm as $t;
                for (o, x) in out[..len].chunks_exact_mut($w).zip(a[..len].chunks_exact($w)) {
                    let xv = <$t>::from_le_bytes(x.try_into().expect("lane"));
                    o.copy_from_slice(&xv.wrapping_add(iv).to_le_bytes());
                }
            }};
        }
        match sew {
            Sew::E8 => lanes!(u8, 1),
            Sew::E16 => lanes!(u16, 2),
            Sew::E32 => lanes!(u32, 4),
            Sew::E64 => lanes!(u64, 8),
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// Splat raw element bits over the whole strip (no vector sources, so
    /// always strip-safe).
    fn strip_splat(&mut self, vd: u8, val: u64, sew: Sew) {
        let n = self.vl;
        let len = n * sew.bytes();
        let mut out = [0u8; MAX_GROUP_BYTES];
        for lane in out[..len].chunks_exact_mut(sew.bytes()) {
            lane.copy_from_slice(&val.to_le_bytes()[..sew.bytes()]);
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
    }

    /// FP compare against a scalar, packing one mask bit per element into
    /// the single register `vd`.
    fn strip_cmp_vf(&mut self, is_lt: bool, vd: u8, vs1: u8, scalar: u64, sew: Sew) -> bool {
        let n = self.vl;
        // The mask destination is one register; if the source group covers
        // it, lanewise bit writes interleave with element reads.
        if Self::group_regs(vs1, n, sew).any(|r| r == (vd as usize & 31)) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        match sew {
            Sew::E32 => {
                let yv = f32::from_bits(scalar as u32);
                for (i, x) in a[..len].chunks_exact(4).enumerate() {
                    let xv = f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                    self.set_mask_bit(vd, i, if is_lt { xv < yv } else { xv >= yv });
                }
            }
            Sew::E64 => {
                let yv = f64::from_bits(scalar);
                for (i, x) in a[..len].chunks_exact(8).enumerate() {
                    let xv = f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                    self.set_mask_bit(vd, i, if is_lt { xv < yv } else { xv >= yv });
                }
            }
            _ => {
                for i in 0..n {
                    self.set_mask_bit(vd, i, false);
                }
            }
        }
        true
    }

    /// Mask-driven merge `vd[i] = mask[i] ? vs1[i] : vs2[i]` over the strip.
    fn strip_merge(&mut self, vd: u8, vs1: u8, vs2: u8, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew)
            || !Self::strip_safe(vd, vs2, n, sew)
            || Self::covers_mask(vd, n, sew)
        {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut b = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        self.copy_group_out(vs2, n, sew, &mut b);
        let w = sew.bytes();
        let it = out[..len].chunks_exact_mut(w).zip(a[..len].chunks_exact(w));
        for (i, ((o, x), y)) in it.zip(b[..len].chunks_exact(w)).enumerate() {
            o.copy_from_slice(if (self.v[0][i / 8] >> (i % 8)) & 1 == 1 { x } else { y });
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// Square root over the strip, optionally masked (inactive elements
    /// undisturbed, seeded from the destination's current contents).
    fn strip_sqrt(&mut self, vd: u8, vs1: u8, masked: bool, sew: Sew) -> bool {
        let n = self.vl;
        if !Self::strip_safe(vd, vs1, n, sew) || (masked && Self::covers_mask(vd, n, sew)) {
            return false;
        }
        let mut a = [0u8; MAX_GROUP_BYTES];
        let mut out = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        if masked {
            self.copy_group_out(vd, n, sew, &mut out);
        }
        let w = sew.bytes();
        for (i, (o, x)) in out[..len].chunks_exact_mut(w).zip(a[..len].chunks_exact(w)).enumerate()
        {
            if masked && (self.v[0][i / 8] >> (i % 8)) & 1 == 0 {
                continue;
            }
            match sew {
                Sew::E32 => {
                    let xv = f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                    o.copy_from_slice(&xv.sqrt().to_le_bytes());
                }
                Sew::E64 => {
                    let xv = f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                    o.copy_from_slice(&xv.sqrt().to_le_bytes());
                }
                _ => o.fill(0),
            }
        }
        self.copy_group_in(vd, n, sew, &out[..len]);
        true
    }

    /// Ordered/unordered sum reduction over the strip (both are computed in
    /// element order). All source reads precede the single element-0 write,
    /// so every aliasing shape is strip-safe.
    fn strip_reduce(&mut self, vd: u8, vs1: u8, vs2: u8, sew: Sew) {
        let n = self.vl;
        let mut a = [0u8; MAX_GROUP_BYTES];
        let len = self.copy_group_out(vs1, n, sew, &mut a);
        match sew {
            Sew::E32 => {
                let mut acc = f32::from_bits(self.read_elem(vs2, 0, sew) as u32);
                for x in a[..len].chunks_exact(4) {
                    acc += f32::from_le_bytes(x.try_into().expect("4-byte lane"));
                }
                self.write_elem(vd, 0, sew, acc.to_bits() as u64);
            }
            Sew::E64 => {
                let mut acc = f64::from_bits(self.read_elem(vs2, 0, sew));
                for x in a[..len].chunks_exact(8) {
                    acc += f64::from_le_bytes(x.try_into().expect("8-byte lane"));
                }
                self.write_elem(vd, 0, sew, acc.to_bits());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn daxpy_v10_f32() -> Program {
        parse_program(
            r"
# x10 = n, x11 = &x, x12 = &y, f0 = alpha; y += alpha * x
loop:
    vsetvli x5, x10, e32, m1, ta, ma
    vle32.v v0, (x11)
    vle32.v v1, (x12)
    vfmacc.vf v1, f0, v0
    vse32.v v1, (x12)
    slli x6, x5, 2
    add x11, x11, x6
    add x12, x12, x6
    sub x10, x10, x5
    bne x10, x0, loop
    ret
",
            Dialect::V10,
        )
        .unwrap()
    }

    #[test]
    fn daxpy_strip_mined_loop_computes_correctly() {
        let n = 37; // deliberately not a multiple of 4 lanes
        let mut m = Machine::new(Dialect::V10, 4096);
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        m.write_f32s(0, &x);
        m.write_f32s(1024, &y);
        m.set_x(10, n as u64);
        m.set_x(11, 0);
        m.set_x(12, 1024);
        m.set_f(0, 3.0);
        m.run(&daxpy_v10_f32(), 100_000).unwrap();
        let out = m.read_f32s(1024, n);
        for (i, v) in out.iter().enumerate() {
            let expect = 2.0 * i as f32 + 3.0 * i as f32;
            assert_eq!(*v, expect, "element {i}");
        }
    }

    #[test]
    fn vsetvli_clamps_to_vlmax() {
        let mut m = Machine::new(Dialect::V10, 64);
        let p =
            parse_program("    vsetvli x5, x10, e32, m1, ta, ma\n    ret\n", Dialect::V10).unwrap();
        m.set_x(10, 100);
        m.run(&p, 100).unwrap();
        assert_eq!(m.x(5), 4, "VLMAX at e32/m1 with VLEN=128 is 4");
        // LMUL=2 doubles it.
        let p2 =
            parse_program("    vsetvli x5, x10, e32, m2, ta, ma\n    ret\n", Dialect::V10).unwrap();
        m.run(&p2, 100).unwrap();
        assert_eq!(m.x(5), 8);
    }

    #[test]
    fn fp64_vector_op_fails_on_v071_but_not_v10() {
        let body = |d: Dialect| -> Program {
            let text = match d {
                Dialect::V10 => {
                    "    vsetvli x5, x10, e64, m1, ta, ma\n    vfadd.vv v2, v0, v1\n    ret\n"
                }
                Dialect::V071 => "    vsetvli x5, x10, e64, m1\n    vfadd.vv v2, v0, v1\n    ret\n",
            };
            parse_program(text, d).unwrap()
        };
        let mut v10 = Machine::new(Dialect::V10, 64);
        v10.set_x(10, 2);
        v10.run(&body(Dialect::V10), 100).unwrap();

        let mut v071 = Machine::new(Dialect::V071, 64);
        v071.set_x(10, 2);
        let err = v071.run(&body(Dialect::V071), 100).unwrap_err();
        assert!(matches!(err, ExecError::UnsupportedFp64 { .. }), "{err}");
    }

    #[test]
    fn tail_agnostic_fills_ones_under_v10() {
        let mut m = Machine::new(Dialect::V10, 64);
        m.write_f32s(0, &[1.0, 2.0, 3.0, 4.0]);
        // vl = 2 of 4 lanes: tail lanes must be all-ones under ta.
        let p = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    ret\n",
            Dialect::V10,
        )
        .unwrap();
        m.set_x(10, 2);
        m.set_x(11, 0);
        m.run(&p, 100).unwrap();
        assert_eq!(m.read_elem(0, 0, Sew::E32), 1.0f32.to_bits() as u64);
        assert_eq!(m.read_elem(0, 1, Sew::E32), 2.0f32.to_bits() as u64);
        assert_eq!(m.read_elem(0, 2, Sew::E32), u32::MAX as u64);
        assert_eq!(m.read_elem(0, 3, Sew::E32), u32::MAX as u64);
    }

    #[test]
    fn tail_undisturbed_under_v071() {
        let mut m = Machine::new(Dialect::V071, 64);
        m.write_f32s(0, &[1.0, 2.0, 3.0, 4.0]);
        let p_full = parse_program(
            "    vsetvli x5, x10, e32, m1\n    vle.v v0, (x11)\n    ret\n",
            Dialect::V071,
        )
        .unwrap();
        m.set_x(10, 4);
        m.set_x(11, 0);
        m.run(&p_full, 100).unwrap();
        // Now load only 2: lanes 2,3 keep their old values.
        m.set_x(10, 2);
        m.run(&p_full, 100).unwrap();
        assert_eq!(m.read_elem(0, 2, Sew::E32), 3.0f32.to_bits() as u64);
        assert_eq!(m.read_elem(0, 3, Sew::E32), 4.0f32.to_bits() as u64);
    }

    #[test]
    fn strided_load_gathers() {
        let mut m = Machine::new(Dialect::V10, 256);
        let vals: Vec<f32> = (0..16).map(|i| i as f32).collect();
        m.write_f32s(0, &vals);
        let p = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n    vlse32.v v0, (x11), x12\n    ret\n",
            Dialect::V10,
        )
        .unwrap();
        m.set_x(10, 4);
        m.set_x(11, 0);
        m.set_x(12, 16); // stride: every 4th f32
        m.run(&p, 100).unwrap();
        for (lane, expect) in [(0usize, 0.0f32), (1, 4.0), (2, 8.0), (3, 12.0)] {
            assert_eq!(m.read_elem(0, lane, Sew::E32), expect.to_bits() as u64);
        }
    }

    #[test]
    fn reduction_sums_with_accumulator() {
        let mut m = Machine::new(Dialect::V10, 64);
        m.write_f32s(0, &[1.0, 2.0, 3.0, 4.0]);
        let p = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v1, (x11)\n    vfmv.v.f v2, f1\n    vfredusum.vs v3, v1, v2\n    vfmv.f.s f2, v3\n    ret\n",
            Dialect::V10,
        )
        .unwrap();
        m.set_x(10, 4);
        m.set_x(11, 0);
        m.set_f(1, 100.0);
        m.run(&p, 100).unwrap();
        assert_eq!(m.f(2), 110.0);
    }

    #[test]
    fn mask_compare_merge_and_masked_sqrt() {
        let mut m = Machine::new(Dialect::V10, 256);
        m.write_f32s(0, &[4.0, -1.0, 9.0, -16.0]);
        let p = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n\
                 vle32.v v1, (x11)\n\
                 vmfge.vf v0, v1, f3\n\
                 vfsqrt.v v2, v1, v0.t\n\
                 vmv.v.x v3, x0\n\
                 vmerge.vvm v2, v3, v2, v0\n\
                 vse32.v v2, (x12)\n\
                 ret\n",
            Dialect::V10,
        )
        .unwrap();
        m.set_x(10, 4);
        m.set_x(11, 0);
        m.set_x(12, 64);
        m.set_f(3, 0.0);
        m.run(&p, 100).unwrap();
        // sqrt where >= 0, else 0 (merged).
        assert_eq!(m.read_f32s(64, 4), vec![2.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn fp64_mask_ops_trap_under_v071() {
        let p = parse_program(
            "    vsetvli x5, x10, e64, m1\n    vmflt.vf v0, v1, f0\n    ret\n",
            Dialect::V071,
        )
        .unwrap();
        let mut m = Machine::new(Dialect::V071, 64);
        m.set_x(10, 2);
        assert!(matches!(m.run(&p, 100).unwrap_err(), ExecError::UnsupportedFp64 { .. }));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let p = parse_program("loop:\n    j loop\n", Dialect::V10).unwrap();
        let mut m = Machine::new(Dialect::V10, 0);
        assert_eq!(m.run(&p, 1000).unwrap_err(), ExecError::StepLimit);
    }

    #[test]
    fn last_pc_points_at_failing_instruction() {
        let p = parse_program(
            "    li x11, 0\n    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    ret\n",
            Dialect::V10,
        )
        .unwrap();
        let mut m = Machine::new(Dialect::V10, 4);
        assert_eq!(m.last_pc(), None);
        m.set_x(10, 4);
        assert!(m.run(&p, 100).is_err());
        assert_eq!(m.last_pc(), Some(2), "the vle32.v is the failing inst");
    }

    #[test]
    fn memory_bounds_checked() {
        let p = parse_program(
            "    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    ret\n",
            Dialect::V10,
        )
        .unwrap();
        let mut m = Machine::new(Dialect::V10, 8);
        m.set_x(10, 4);
        m.set_x(11, 0);
        assert!(matches!(m.run(&p, 100).unwrap_err(), ExecError::MemOutOfBounds { .. }));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let p = parse_program("    li x0, 42\n    mv x1, x0\n    ret\n", Dialect::V10).unwrap();
        let mut m = Machine::new(Dialect::V10, 0);
        m.run(&p, 10).unwrap();
        assert_eq!(m.x(1), 0);
    }

    #[test]
    fn instruction_counters() {
        let mut m = Machine::new(Dialect::V10, 4096);
        let x: Vec<f32> = vec![1.0; 8];
        m.write_f32s(0, &x);
        m.write_f32s(1024, &x);
        m.set_x(10, 8);
        m.set_x(11, 0);
        m.set_x(12, 1024);
        m.set_f(0, 1.0);
        m.run(&daxpy_v10_f32(), 10_000).unwrap();
        // Two strip-mine iterations × 10 insts + ret = 21 executed.
        assert_eq!(m.executed, 21);
        // 5 vector insts per iteration × 2 iterations.
        assert_eq!(m.executed_vector, 10);
    }

    fn daxpy_machine(n: usize) -> Machine {
        let mut m = Machine::new(Dialect::V10, 4096);
        let x: Vec<f32> = vec![1.0; n];
        m.write_f32s(0, &x);
        m.write_f32s(1024, &x);
        m.set_x(10, n as u64);
        m.set_x(11, 0);
        m.set_x(12, 1024);
        m.set_f(0, 1.0);
        m
    }

    #[test]
    fn run_fueled_returns_exact_step_count() {
        // Steps count every dispatch including the `loop:` label: two
        // iterations × 11 dispatches + ret = 23.
        let steps = daxpy_machine(8).run_fueled(&daxpy_v10_f32(), 10_000).unwrap();
        assert_eq!(steps, 23);
    }

    #[test]
    fn fuel_equal_to_step_count_is_enough_and_one_less_is_not() {
        let p = daxpy_v10_f32();
        let steps = daxpy_machine(8).run_fueled(&p, 10_000).unwrap();
        assert_eq!(daxpy_machine(8).run_fueled(&p, steps).unwrap(), steps);
        assert!(matches!(
            daxpy_machine(8).run_fueled(&p, steps - 1).unwrap_err(),
            ExecError::StepLimit
        ));
    }

    #[test]
    fn mem_bytes_counts_every_access() {
        let mut m = daxpy_machine(8);
        m.run(&daxpy_v10_f32(), 10_000).unwrap();
        // Per iteration: two vle32 + one vse32, each vl=4 × 4 bytes = 16.
        assert_eq!(m.mem_bytes, 2 * 3 * 16);
    }

    /// Run a program in both execution modes and require every observable
    /// to match exactly: registers, memory, counters, vl, and step count.
    fn assert_modes_agree(text: &str, dialect: Dialect, setup: impl Fn(&mut Machine)) {
        let p = parse_program(text, dialect).unwrap();
        let mut strip = Machine::new(dialect, 4096);
        let mut lane = Machine::new(dialect, 4096);
        lane.set_exec_mode(ExecMode::Lanewise);
        setup(&mut strip);
        setup(&mut lane);
        strip.enable_mem_tracking();
        lane.enable_mem_tracking();
        let rs = strip.run_fueled(&p, 100_000);
        let rl = lane.run_fueled(&p, 100_000);
        assert_eq!(rs, rl, "fuel/step results diverged");
        assert_eq!(strip.v, lane.v, "vector registers diverged");
        assert_eq!(strip.x, lane.x);
        assert_eq!(strip.f, lane.f);
        assert_eq!(strip.mem, lane.mem, "memory diverged");
        assert_eq!(strip.executed, lane.executed);
        assert_eq!(strip.executed_vector, lane.executed_vector);
        assert_eq!(strip.mem_bytes, lane.mem_bytes);
        assert_eq!(strip.touched_accesses(), lane.touched_accesses());
        assert_eq!(strip.vl, lane.vl);
    }

    #[test]
    fn strip_and_lanewise_agree_on_daxpy() {
        let n = 37;
        assert_modes_agree(
            "loop:\n    vsetvli x5, x10, e32, m1, ta, ma\n    vle32.v v0, (x11)\n    vle32.v v1, (x12)\n    vfmacc.vf v1, f0, v0\n    vse32.v v1, (x12)\n    slli x6, x5, 2\n    add x11, x11, x6\n    add x12, x12, x6\n    sub x10, x10, x5\n    bne x10, x0, loop\n    ret\n",
            Dialect::V10,
            |m| {
                let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
                m.write_f32s(0, &x);
                m.write_f32s(1024, &x);
                m.set_x(10, n as u64);
                m.set_x(11, 0);
                m.set_x(12, 1024);
                m.set_f(0, 3.0);
            },
        );
    }

    #[test]
    fn strip_and_lanewise_agree_on_aliased_operands() {
        // vd == vs1 == vs2 (in-place doubling) plus mask/merge/sqrt shapes.
        assert_modes_agree(
            "    vsetvli x5, x10, e32, m1, ta, ma\n\
                 vle32.v v1, (x11)\n\
                 vfadd.vv v1, v1, v1\n\
                 vmfge.vf v0, v1, f3\n\
                 vfsqrt.v v2, v1, v0.t\n\
                 vmerge.vvm v2, v1, v2, v0\n\
                 vadd.vi v2, v2, -3\n\
                 vse32.v v2, (x12)\n\
                 ret\n",
            Dialect::V10,
            |m| {
                m.write_f32s(0, &[4.0, -1.0, 9.0, -16.0]);
                m.set_x(10, 3); // partial strip: tail lanes exercised too
                m.set_x(11, 0);
                m.set_x(12, 64);
                m.set_f(3, 0.0);
            },
        );
    }

    #[test]
    fn strip_falls_back_on_offset_overlapping_groups() {
        // LMUL=2 with vd/vs1 groups overlapping at a register offset — the
        // order-dependent shape the strip path must refuse and the lanewise
        // reference defines. v2 group = {v2,v3}, v1 group = {v1,v2}.
        assert_modes_agree(
            "    vsetvli x5, x10, e32, m2, ta, ma\n\
                 vle32.v v1, (x11)\n\
                 vfadd.vv v2, v1, v1\n\
                 vse32.v v2, (x12)\n\
                 ret\n",
            Dialect::V10,
            |m| {
                let vals: Vec<f32> = (0..8).map(|i| i as f32 + 0.5).collect();
                m.write_f32s(0, &vals);
                m.set_x(10, 8);
                m.set_x(11, 0);
                m.set_x(12, 256);
            },
        );
    }

    #[test]
    fn strip_and_lanewise_agree_on_reduction_and_v071() {
        assert_modes_agree(
            "    vsetvli x5, x10, e32, m1\n\
                 vle.v v1, (x11)\n\
                 vfmv.v.f v2, f1\n\
                 vfredsum.vs v3, v1, v2\n\
                 vfmv.f.s f2, v3\n\
                 ret\n",
            Dialect::V071,
            |m| {
                m.write_f32s(0, &[1.5, 2.25, 3.125, 4.0625]);
                m.set_x(10, 4);
                m.set_x(11, 0);
                m.set_f(1, 100.0);
            },
        );
    }

    #[test]
    fn touched_log_records_accesses_only_when_enabled() {
        let mut quiet = daxpy_machine(8);
        quiet.run(&daxpy_v10_f32(), 10_000).unwrap();
        assert!(quiet.touched_accesses().is_none());

        let mut m = daxpy_machine(8);
        m.enable_mem_tracking();
        m.run(&daxpy_v10_f32(), 10_000).unwrap();
        let log = m.touched_accesses().unwrap();
        assert_eq!(log.len(), 6);
        assert_eq!(log[0], (0, 16), "first vle32 of x at base 0");
        assert_eq!(log[1], (1024, 16), "first vle32 of y");
        assert_eq!(log[2], (1024, 16), "first vse32 of y");
        assert_eq!(log[3], (16, 16), "second iteration advances by vl×4");
        let total: u64 = log.iter().map(|&(_, len)| len as u64).sum();
        assert_eq!(total, m.mem_bytes);
    }
}
