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
/// The whole vector register file in bytes: 32 registers, laid out flat.
const VREG_FILE_BYTES: usize = 32 * VLEN_BYTES;

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
    /// The 32 vector registers back to back: `v<r>` is bytes
    /// `16r..16r + 16`, so a register group is one contiguous span (wrapping
    /// from v31 to v0).
    v: [u8; VREG_FILE_BYTES],
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
}

impl Machine {
    /// A machine with `mem_bytes` of zeroed memory.
    pub fn new(dialect: Dialect, mem_bytes: usize) -> Self {
        Machine {
            dialect,
            x: [0; 32],
            f: [0.0; 32],
            v: [0; VREG_FILE_BYTES],
            mem: vec![0; mem_bytes],
            vl: 0,
            vtype: None,
            last_pc: None,
            executed: 0,
            executed_vector: 0,
            retired_by_class: [0; OpClass::ALL.len()],
            mem_bytes: 0,
            touched_log: None,
        }
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

    /// Byte offset of element `idx` of the group at `base` in the flat
    /// register file. Elements past v31 wrap to v0.
    fn elem_off(base: u8, idx: usize, sew: Sew) -> usize {
        (base as usize * VLEN_BYTES + idx * sew.bytes()) % VREG_FILE_BYTES
    }

    /// The register-file spans covered by `len` bytes from element `start`
    /// of the group at `base`, in element order: one span, or more where
    /// the group wraps from v31 to v0. Every span starts on an element.
    fn group_spans(
        base: u8,
        start: usize,
        sew: Sew,
        len: usize,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        let mut off = Self::elem_off(base, start, sew);
        let mut left = len;
        std::iter::from_fn(move || {
            let take = left.min(VREG_FILE_BYTES - off);
            if take == 0 {
                return None;
            }
            let span = off..off + take;
            left -= take;
            off = 0;
            Some(span)
        })
    }

    fn read_elem(&self, base: u8, idx: usize, sew: Sew) -> u64 {
        let b = &self.v[Self::elem_off(base, idx, sew)..];
        match sew {
            Sew::E8 => u64::from(b[0]),
            Sew::E16 => u64::from(u16::from_le_bytes([b[0], b[1]])),
            Sew::E32 => u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            Sew::E64 => u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
        }
    }

    fn write_elem(&mut self, base: u8, idx: usize, sew: Sew, val: u64) {
        let b = &mut self.v[Self::elem_off(base, idx, sew)..];
        match sew {
            Sew::E8 => b[0] = val as u8,
            Sew::E16 => b[..2].copy_from_slice(&(val as u16).to_le_bytes()),
            Sew::E32 => b[..4].copy_from_slice(&(val as u32).to_le_bytes()),
            Sew::E64 => b[..8].copy_from_slice(&val.to_le_bytes()),
        }
    }

    /// Write `val` to elements `0..vl` of the group at `base`. No vector
    /// register is read, so filling span by span gives the element-order
    /// result.
    fn splat(&mut self, base: u8, sew: Sew, val: u64) {
        let lane = &val.to_le_bytes()[..sew.bytes()];
        for span in Self::group_spans(base, 0, sew, self.vl * sew.bytes()) {
            for elem in self.v[span].chunks_exact_mut(sew.bytes()) {
                elem.copy_from_slice(lane);
            }
        }
    }

    /// Apply tail policy after writing `vl` elements of a destination group.
    fn apply_tail(&mut self, base: u8, sew: Sew, lmul: Lmul, tail_agnostic: bool) {
        let vlmax = Self::vlmax(sew, lmul);
        if self.dialect == Dialect::V10 && tail_agnostic && self.vl < vlmax {
            // All-ones elements are all-ones bytes.
            let len = (vlmax - self.vl) * sew.bytes();
            for span in Self::group_spans(base, self.vl, sew, len) {
                self.v[span].fill(0xFF);
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
        // Each branch's and jump's target index, resolved once per run;
        // `None` for an unknown label, raised only if the transfer is taken.
        let targets: Vec<Option<usize>> = program
            .insts
            .iter()
            .map(|inst| match inst {
                Inst::Branch { target, .. } | Inst::Jump { target } => labels.get(target).copied(),
                _ => None,
            })
            .collect();
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
                        pc = targets[pc].ok_or_else(|| ExecError::UnknownLabel(target.clone()))?;
                        continue;
                    }
                }
                Inst::Jump { target } => {
                    pc = targets[pc].ok_or_else(|| ExecError::UnknownLabel(target.clone()))?;
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
                    let len = self.vl * eew.bytes();
                    self.note_mem(base, len);
                    // One copy per span: memory is the only source.
                    let mut a = base as usize;
                    for span in Self::group_spans(vd.0, 0, *eew, len) {
                        let end = a + span.len();
                        self.v[span].copy_from_slice(&self.mem[a..end]);
                        a = end;
                    }
                    self.apply_tail(vd.0, *eew, lmul, ta);
                }
                Inst::Vse { vs, rs1, eew } => {
                    let base = self.x(rs1.0);
                    self.check_mem(base, self.vl * eew.bytes())?;
                    let len = self.vl * eew.bytes();
                    self.note_mem(base, len);
                    let mut a = base as usize;
                    for span in Self::group_spans(vs.0, 0, *eew, len) {
                        let end = a + span.len();
                        self.mem[a..end].copy_from_slice(&self.v[span]);
                        a = end;
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
                    for i in 0..self.vl {
                        let a = self.read_elem(vs1.0, i, sew);
                        let b = self.read_elem(vs2.0, i, sew);
                        self.write_elem(vd.0, i, sew, Self::fp_bin(sew, *op, a, b));
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfVF { op, vd, vs1, fs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, op.stem())?;
                    let scalar = self.scalar_bits(fs2.0, sew);
                    for i in 0..self.vl {
                        let a = self.read_elem(vs1.0, i, sew);
                        self.write_elem(vd.0, i, sew, Self::fp_bin(sew, *op, a, scalar));
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmaccVV { vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmacc.vv")?;
                    for i in 0..self.vl {
                        let acc = self.read_elem(vd.0, i, sew);
                        let a = self.read_elem(vs1.0, i, sew);
                        let b = self.read_elem(vs2.0, i, sew);
                        self.write_elem(vd.0, i, sew, Self::fma_bits(sew, acc, a, b));
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmaccVF { vd, fs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmacc.vf")?;
                    let scalar = self.scalar_bits(fs1.0, sew);
                    for i in 0..self.vl {
                        let acc = self.read_elem(vd.0, i, sew);
                        let b = self.read_elem(vs2.0, i, sew);
                        self.write_elem(vd.0, i, sew, Self::fma_bits(sew, acc, scalar, b));
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::ViVV { op, vd, vs1, vs2 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    for i in 0..self.vl {
                        let a = self.read_elem(vs1.0, i, sew);
                        let b = self.read_elem(vs2.0, i, sew);
                        self.write_elem(vd.0, i, sew, Self::int_bin(sew, *op, a, b));
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VaddVI { vd, vs1, imm } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    for i in 0..self.vl {
                        let a = self.read_elem(vs1.0, i, sew);
                        self.write_elem(
                            vd.0,
                            i,
                            sew,
                            Self::int_bin(sew, ViBinOp::Add, a, *imm as i64 as u64),
                        );
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VmfltVF { vd, vs1, fs2 } | Inst::VmfgeVF { vd, vs1, fs2 } => {
                    let (sew, _, _) = self.vtype()?;
                    let is_lt = matches!(inst, Inst::VmfltVF { .. });
                    self.guard_fp64(sew, if is_lt { "vmflt.vf" } else { "vmfge.vf" })?;
                    let scalar = self.scalar_bits(fs2.0, sew);
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
                Inst::VmergeVVM { vd, vs2, vs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    for i in 0..self.vl {
                        let val = if self.mask_bit(i) {
                            self.read_elem(vs1.0, i, sew)
                        } else {
                            self.read_elem(vs2.0, i, sew)
                        };
                        self.write_elem(vd.0, i, sew, val);
                    }
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfsqrtV { vd, vs1, masked } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfsqrt.v")?;
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
                    if !*masked {
                        self.apply_tail(vd.0, sew, lmul, ta);
                    }
                }
                Inst::VmvVX { vd, rs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    let val = self.x(rs1.0);
                    self.splat(vd.0, sew, val);
                    self.apply_tail(vd.0, sew, lmul, ta);
                }
                Inst::VfmvVF { vd, fs1 } => {
                    let (sew, lmul, ta) = self.vtype()?;
                    self.guard_fp64(sew, "vfmv.v.f")?;
                    let val = self.scalar_bits(fs1.0, sew);
                    self.splat(vd.0, sew, val);
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
        (self.v[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Write mask bit `i` of a mask destination register.
    fn set_mask_bit(&mut self, vd: u8, i: usize, val: bool) {
        let byte = &mut self.v[(vd as usize & 31) * VLEN_BYTES + i / 8];
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

    /// Run `text` from fresh 4 KiB memory after `setup`.
    fn run_text(text: &str, dialect: Dialect, setup: impl Fn(&mut Machine)) -> Machine {
        let p = parse_program(text, dialect).unwrap();
        let mut m = Machine::new(dialect, 4096);
        setup(&mut m);
        m.run(&p, 1000).unwrap();
        m
    }

    /// Elements `0..n` of the group at `base`, as raw bits.
    fn elems(m: &Machine, base: u8, n: usize, sew: Sew) -> Vec<u64> {
        (0..n).map(|i| m.read_elem(base, i, sew)).collect()
    }

    fn f32_bits(vals: &[f32]) -> Vec<u64> {
        vals.iter().map(|v| u64::from(v.to_bits())).collect()
    }

    #[test]
    fn aliased_operands_pin_registers_and_memory() {
        // vd == vs1 == vs2 (in-place doubling), then mask, masked sqrt and
        // merge shapes whose operands alias the destination, at vl = 3 of
        // 4 so the ta tail fill shows too.
        let m = run_text(
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
                m.set_x(10, 3);
                m.set_x(11, 0);
                m.set_x(12, 64);
                m.set_f(3, 0.0);
            },
        );
        let ones = u64::from(u32::MAX);
        // Mask bits 0 and 2 (8.0 and 18.0 are >= 0); the rest of v0 is zero.
        assert_eq!(elems(&m, 0, 4, Sew::E32), vec![0b101, 0, 0, 0]);
        let mut doubled = f32_bits(&[8.0, -2.0, 18.0]);
        doubled.push(ones);
        assert_eq!(elems(&m, 1, 4, Sew::E32), doubled);
        // sqrt where the mask is set, v1 elsewhere, then 3 off the bits.
        let merged: Vec<u64> =
            f32_bits(&[8f32.sqrt(), -2.0, 18f32.sqrt()]).iter().map(|b| b - 3).collect();
        assert_eq!(elems(&m, 2, 4, Sew::E32), [merged.clone(), vec![ones]].concat());
        assert_eq!(f32_bits(&m.read_f32s(64, 4)), [merged, vec![0]].concat());
    }

    #[test]
    fn offset_overlapping_groups_follow_element_order() {
        // LMUL=2 with the vd group {v2,v3} over the vs1 group {v1,v2} at a
        // one-register offset: elements 4..8 of the source are read after
        // elements 0..4 of the destination overwrote them, so they double
        // twice.
        let m = run_text(
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
        assert_eq!(m.read_f32s(256, 8), vec![1.0, 3.0, 5.0, 7.0, 2.0, 6.0, 10.0, 14.0]);
        assert_eq!(elems(&m, 1, 4, Sew::E32), f32_bits(&[0.5, 1.5, 2.5, 3.5]));
    }

    #[test]
    fn group_past_v31_wraps_to_v0() {
        // e32/m8 at vl = 32 from v28: elements 0..16 land in v28..v31 and
        // elements 16..32 wrap to v0..v3, on the load and the store alike.
        let m = run_text(
            "    vsetvli x5, x10, e32, m8, ta, ma\n\
                 vle32.v v28, (x11)\n\
                 vse32.v v28, (x12)\n\
                 vsetvli x5, x10, e32, m1, ta, ma\n\
                 vse32.v v0, (x13)\n\
                 ret\n",
            Dialect::V10,
            |m| {
                let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
                m.write_f32s(0, &vals);
                m.set_x(10, 32);
                m.set_x(11, 0);
                m.set_x(12, 512);
                m.set_x(13, 1024);
            },
        );
        let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
        assert_eq!(elems(&m, 28, 4, Sew::E32), f32_bits(&vals[0..4]));
        assert_eq!(elems(&m, 31, 4, Sew::E32), f32_bits(&vals[12..16]));
        assert_eq!(elems(&m, 0, 4, Sew::E32), f32_bits(&vals[16..20]));
        assert_eq!(elems(&m, 3, 4, Sew::E32), f32_bits(&vals[28..32]));
        assert_eq!(m.read_f32s(512, 32), vals);
        assert_eq!(m.read_f32s(1024, 4), vals[16..20]);
    }

    #[test]
    fn v071_reduction_sums_in_element_order() {
        let m = run_text(
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
        // ((((100 + 1.5) + 2.25) + 3.125) + 4.0625), all exact in f32.
        assert_eq!(m.f(2), 110.9375);
        assert_eq!(elems(&m, 2, 4, Sew::E32), f32_bits(&[100.0; 4]));
        // v0.7.1 leaves the tail of the reduction destination undisturbed.
        assert_eq!(elems(&m, 3, 4, Sew::E32), vec![u64::from(110.9375f32.to_bits()), 0, 0, 0]);
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
