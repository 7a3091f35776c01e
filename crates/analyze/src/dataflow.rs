//! Forward abstract-interpretation engine and the six forward lint passes.
//!
//! A worklist fixpoint propagates [`AbsState`] through the CFG, widening
//! pointer/value intervals at joins once a block has been revisited
//! [`WIDEN_AFTER`] times (so strip-mine loops converge in a handful of
//! iterations). Once stable, a single *emission* pass re-walks every
//! reachable block from its fixed entry state and reports findings; the
//! same pass records the effective LMUL group size at each instruction for
//! the backward dead-store analysis.
//!
//! Soundness stance: `oob-access` only fires when every bound involved is
//! finite — a widened (loop-carried) pointer never produces a report. The
//! other passes err on the side of `may`-phrased findings when paths
//! disagree.

use crate::bounds::{self, Bounds, MemEvent};
use crate::cfg::{self, Cfg};
use crate::diag::{Diagnostic, Pass};
use crate::state::{b_add, b_mul, vlmax, AbsState, Tri, XVal, NEG_INF, POS_INF};
use crate::AnalysisSpec;
use rvhpc_rvv::dialect::Sew;
use rvhpc_rvv::inst::{FReg, Inst, Program, VReg, XReg};

/// Joins at a block tolerated before interval bounds widen to ±∞.
const WIDEN_AFTER: u32 = 8;

/// Worklist pops tolerated per CFG block before the fixpoint engine gives
/// up. The widened lattice has finite height, so real programs settle in a
/// handful of visits; the fuel only guards against an engine bug looping
/// forever — and when it runs out we now say so (`widening-exhausted`)
/// instead of silently returning whatever half-settled states we had.
pub(crate) const FIXPOINT_FUEL_PER_BLOCK: u64 = 256;

/// Fuel floor so tiny graphs still get plenty of iterations.
pub(crate) const FIXPOINT_FUEL_MIN: u64 = 4096;

/// Default fixpoint fuel for a graph of `nb` blocks.
pub(crate) fn default_fuel(nb: usize) -> u64 {
    (nb as u64).saturating_mul(FIXPOINT_FUEL_PER_BLOCK).max(FIXPOINT_FUEL_MIN)
}

/// Everything one analysis run produces: the findings and the inferred
/// resource bounds (when the fixpoint settled; a `widening-exhausted`
/// finding marks the runs where it did not).
pub(crate) struct Outcome {
    /// All findings, including `unbounded-loop` (callers that only lint
    /// for defects filter that pass out; the report/admission path keeps
    /// it).
    pub diags: Vec<Diagnostic>,
    /// Inferred resource bounds; `None` when the program is empty,
    /// malformed, or the fixpoint did not settle.
    pub bounds: Option<Bounds>,
}

/// Run every forward pass plus the backward dead-store pass.
pub(crate) fn analyze(program: &Program, spec: &AnalysisSpec) -> Vec<Diagnostic> {
    analyze_with_fuel(program, spec, None)
        .diags
        .into_iter()
        .filter(|d| d.pass != Pass::UnboundedLoop)
        .collect()
}

/// Full analysis with an optional fixpoint-fuel override (tests use a tiny
/// budget to exercise the exhaustion path).
pub(crate) fn analyze_with_fuel(
    program: &Program,
    spec: &AnalysisSpec,
    fuel: Option<u64>,
) -> Outcome {
    let cfg = match cfg::build(program) {
        Ok(cfg) => cfg,
        Err(diags) => return Outcome { diags, bounds: None },
    };
    if program.insts.is_empty() {
        return Outcome { diags: Vec::new(), bounds: None };
    }

    let entry = AbsState::entry(spec);
    let fuel = fuel.unwrap_or_else(|| default_fuel(cfg.blocks.len()));
    let (in_states, exhausted) = fixpoint(program, &cfg, spec, entry, fuel);
    if exhausted {
        // Half-settled states could both miss findings and report
        // definite-sounding ones for paths that never merged, so the only
        // honest output is the exhaustion itself.
        rvhpc_obs::counter!("lint.widening_exhausted", 1);
        let diags = vec![Diagnostic::global(
            Pass::WideningExhausted,
            format!(
                "abstract interpretation ran out of widening fuel ({fuel} block visits for \
                 {} blocks) before the states settled; no findings or resource bounds \
                 can be trusted for this program",
                cfg.blocks.len()
            ),
        )];
        return Outcome { diags, bounds: None };
    }

    // Emission pass: one walk per reachable block from its settled entry
    // state, also recording the memory events and live-register high-water
    // mark the bounds inference consumes.
    let mut diags = Vec::new();
    let mut lmul_at: Vec<Option<u32>> = vec![None; program.insts.len()];
    let mut extras = Extras::default();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(state) = &in_states[b] else { continue };
        let mut st = state.clone();
        extras.note_live(&st);
        for i in block.start..block.end {
            transfer(
                &program.insts[i],
                i,
                &mut st,
                spec,
                true,
                &mut diags,
                &mut lmul_at,
                Some(&mut extras),
            );
            extras.note_live(&st);
        }
    }

    let reachable: Vec<bool> = in_states.iter().map(Option::is_some).collect();
    diags.extend(crate::deadstore::find_dead_stores(program, &cfg, &lmul_at, &reachable));

    let (bounds, bound_diags) = bounds::infer(program, &cfg, spec, &in_states, &extras);
    diags.extend(bound_diags);

    let order = |p: Pass| Pass::ALL.iter().position(|q| *q == p).unwrap_or(usize::MAX);
    diags.sort_by(|a, b| {
        (a.at.unwrap_or(usize::MAX), order(a.pass), &a.message).cmp(&(
            b.at.unwrap_or(usize::MAX),
            order(b.pass),
            &b.message,
        ))
    });
    diags.dedup();
    Outcome { diags, bounds: Some(bounds) }
}

/// Side-channel facts the emission walk records for bounds inference.
#[derive(Default)]
pub(crate) struct Extras {
    /// One entry per executed memory instruction (vector or scalar float).
    pub mem_events: Vec<MemEvent>,
    /// High-water mark of possibly-live vector registers at any walk point.
    pub peak_vregs: u32,
}

impl Extras {
    fn note_live(&mut self, st: &AbsState) {
        let live = st.v_init.iter().filter(|t| **t != Tri::No).count() as u32;
        self.peak_vregs = self.peak_vregs.max(live);
    }
}

/// Per-block entry states computed over *forward* (index-increasing) edges
/// only, with no widening. Because every forward edge goes to a
/// higher-numbered block, one pass in block order settles them. Bounds
/// inference reads a loop counter's pre-loop interval here — the settled
/// fixpoint states have already widened those intervals across the
/// back-edge.
pub(crate) fn forward_entry_states(
    program: &Program,
    cfg: &Cfg,
    spec: &AnalysisSpec,
) -> Vec<Option<AbsState>> {
    let nb = cfg.blocks.len();
    let mut in_states: Vec<Option<AbsState>> = vec![None; nb];
    in_states[0] = Some(AbsState::entry(spec));
    let mut sink_diags = Vec::new();
    let mut sink_lmul = vec![None; program.insts.len()];
    for b in 0..nb {
        let Some(mut st) = in_states[b].clone() else { continue };
        let block = &cfg.blocks[b];
        for i in block.start..block.end {
            transfer(
                &program.insts[i],
                i,
                &mut st,
                spec,
                false,
                &mut sink_diags,
                &mut sink_lmul,
                None,
            );
        }
        for &s in &block.succs {
            if s <= b {
                continue; // drop back-edges
            }
            in_states[s] = Some(match &in_states[s] {
                Some(old) => old.join(&st, false),
                None => st.clone(),
            });
        }
    }
    in_states
}

/// Worklist fixpoint; returns the settled entry state of each block
/// (`None` = unreachable) and whether the fuel ran out first.
fn fixpoint(
    program: &Program,
    cfg: &Cfg,
    spec: &AnalysisSpec,
    entry: AbsState,
    mut fuel: u64,
) -> (Vec<Option<AbsState>>, bool) {
    let nb = cfg.blocks.len();
    let mut in_states: Vec<Option<AbsState>> = vec![None; nb];
    let mut visits = vec![0u32; nb];
    in_states[0] = Some(entry);
    let mut work = vec![0usize];
    let mut sink_diags = Vec::new();
    let mut sink_lmul = vec![None; program.insts.len()];
    while let Some(b) = work.pop() {
        if fuel == 0 {
            return (in_states, true);
        }
        fuel -= 1;
        let mut st = in_states[b].clone().expect("queued blocks have a state");
        let block = &cfg.blocks[b];
        for i in block.start..block.end {
            transfer(
                &program.insts[i],
                i,
                &mut st,
                spec,
                false,
                &mut sink_diags,
                &mut sink_lmul,
                None,
            );
        }
        for &s in &block.succs {
            let widen = visits[s] >= WIDEN_AFTER;
            let merged = match &in_states[s] {
                Some(old) => old.join(&st, widen),
                None => st.clone(),
            };
            if in_states[s].as_ref() != Some(&merged) {
                visits[s] += 1;
                in_states[s] = Some(merged);
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }
    (in_states, false)
}

/// Effective register-group size under the current LMUL: whole LMUL is the
/// group size, fractional occupies one register, unknown defaults to one
/// (conservative for group checks — no false alignment reports).
fn group(st: &AbsState) -> u32 {
    st.lmul.map(|l| l.whole().unwrap_or(1)).unwrap_or(1)
}

fn tri_word(t: Tri) -> Option<&'static str> {
    match t {
        Tri::Yes => None,
        Tri::No => Some("is"),
        Tri::Maybe => Some("may be"),
    }
}

/// Path-insensitive "does garbage exist" combinator: `Yes` dominates
/// (garbage in either input is garbage in the result), unlike the
/// path-merge [`Tri::join`].
fn tri_or(a: Tri, b: Tri) -> Tri {
    match (a, b) {
        (Tri::Yes, _) | (_, Tri::Yes) => Tri::Yes,
        (Tri::No, Tri::No) => Tri::No,
        _ => Tri::Maybe,
    }
}

/// Cap a garbage flag at `Maybe` (used when the observation itself is only
/// possible on some paths).
fn tri_maybe(t: Tri) -> Tri {
    match t {
        Tri::No => Tri::No,
        _ => Tri::Maybe,
    }
}

/// Does a freshly (re)defined register end up with unspecified tail lanes?
/// Under `ta` the lanes past `vl` are agnostic; under `tu` the old
/// contents (and therefore the old tail flag) survive.
fn tail_after_def(st: &AbsState, old: Tri) -> Tri {
    let no_tail = match (st.sew, st.lmul) {
        (Some(s), Some(l)) => st.vl_lo >= vlmax(s, l),
        _ => false,
    };
    if no_tail {
        return Tri::No;
    }
    match st.ta {
        Some(true) => Tri::Yes,
        Some(false) => old,
        None => Tri::join(old, Tri::Yes),
    }
}

/// Apply a full-body vector definition's `mask-undefined` effect: the
/// group's shadow/hard flags are replaced by the defining op's, the tail
/// flag follows the active tail policy, and a redefinition of `v0` first
/// orphans every shadow (the mask that made those lanes separable is gone,
/// so shadow garbage everywhere promotes to hard garbage).
fn apply_v_def(st: &mut AbsState, base: VReg, g: u32, mut shadow: Tri, mut hard: Tri) {
    if base.0 == 0 {
        for r in 0..32 {
            st.v_hard[r] = tri_or(st.v_hard[r], st.v_shadow[r]);
            st.v_shadow[r] = Tri::No;
        }
        // The new v0's own garbage (if any) came in under the *old* mask,
        // which no instruction can consult any more.
        hard = tri_or(hard, shadow);
        shadow = Tri::No;
    }
    for k in 0..g {
        let r = (base.0 as u32 + k).min(31) as usize;
        let old_tail = st.v_tail[r];
        st.v_shadow[r] = shadow;
        st.v_hard[r] = hard;
        st.v_tail[r] = tail_after_def(st, old_tail);
    }
}

/// Worst shadow/hard garbage flag across a register group.
fn group_garbage(st: &AbsState, base: VReg, g: u32) -> Tri {
    let mut worst = Tri::No;
    for k in 0..g {
        let r = (base.0 as u32 + k).min(31) as usize;
        worst = tri_or(worst, tri_or(st.v_shadow[r], st.v_hard[r]));
    }
    worst
}

/// Worst shadow flag alone across a group (for `vmerge` source tracking).
fn group_shadow(st: &AbsState, base: VReg, g: u32) -> Tri {
    let mut worst = Tri::No;
    for k in 0..g {
        worst = tri_or(worst, st.v_shadow[(base.0 as u32 + k).min(31) as usize]);
    }
    worst
}

/// Worst hard flag alone across a group.
fn group_hard(st: &AbsState, base: VReg, g: u32) -> Tri {
    let mut worst = Tri::No;
    for k in 0..g {
        worst = tri_or(worst, st.v_hard[(base.0 as u32 + k).min(31) as usize]);
    }
    worst
}

/// One instruction's abstract effect. With `emit` set (the emission walk)
/// findings are pushed to `diags`; the fixpoint walk passes `false` and a
/// throwaway sink. `extras` (emission walk only) collects the memory
/// events bounds inference consumes.
#[allow(clippy::too_many_arguments)]
fn transfer(
    inst: &Inst,
    at: usize,
    st: &mut AbsState,
    spec: &AnalysisSpec,
    emit: bool,
    diags: &mut Vec<Diagnostic>,
    lmul_at: &mut [Option<u32>],
    mut extras: Option<&mut Extras>,
) {
    macro_rules! emit {
        ($pass:expr, $($arg:tt)*) => {
            if emit {
                diags.push(Diagnostic::at($pass, at, format!($($arg)*)));
            }
        };
    }

    macro_rules! read_x {
        ($r:expr) => {{
            let r: XReg = $r;
            if r.0 != 0 {
                if let Some(word) = tri_word(st.x_init[r.0 as usize & 31]) {
                    emit!(
                        Pass::UninitRead,
                        "x{} {} read before any instruction writes it",
                        r.0,
                        word
                    );
                }
            }
        }};
    }
    macro_rules! read_f {
        ($r:expr) => {{
            let r: FReg = $r;
            if let Some(word) = tri_word(st.f_init[r.0 as usize & 31]) {
                emit!(Pass::UninitRead, "f{} {} read before any instruction writes it", r.0, word);
            }
        }};
    }
    // Read `g` consecutive vector registers starting at `base` (an LMUL
    // group).
    macro_rules! read_v {
        ($base:expr, $g:expr) => {{
            let base: VReg = $base;
            let g: u32 = $g;
            for k in 0..g {
                let r = (base.0 as u32 + k).min(31) as usize;
                if let Some(word) = tri_word(st.v_init[r]) {
                    emit!(
                        Pass::UninitRead,
                        "v{} (in v{}'s LMUL group) {} read before any instruction writes it",
                        r,
                        base.0,
                        word
                    );
                    break;
                }
            }
        }};
    }
    macro_rules! def_v {
        ($base:expr, $g:expr) => {{
            let base: VReg = $base;
            let g: u32 = $g;
            for k in 0..g {
                st.v_init[(base.0 as u32 + k).min(31) as usize] = Tri::Yes;
            }
        }};
    }
    macro_rules! require_vtype {
        ($what:expr) => {
            match st.vset {
                Tri::Yes => {}
                Tri::No => {
                    emit!(Pass::NoVtype, "{} executes before any vsetvli configures vtype", $what)
                }
                Tri::Maybe => {
                    emit!(Pass::NoVtype, "{} may execute before any vsetvli on some path", $what)
                }
            }
        };
    }
    // v0.7.1 has no FP64 vector arithmetic on the C920.
    macro_rules! fp64_guard {
        ($what:expr) => {
            if spec.v071_target && st.sew == Some(Sew::E64) {
                emit!(
                    Pass::DialectIllegal,
                    "{} at SEW=e64: the C920 (RVV v0.7.1) has no FP64 vector arithmetic",
                    $what
                );
            }
        };
    }
    macro_rules! aligned {
        ($r:expr, $role:expr) => {{
            let r: VReg = $r;
            let g = group(st);
            if st.lmul.is_some() && g > 1 && r.0 as u32 % g != 0 {
                emit!(
                    Pass::RegGroupOverlap,
                    "{} v{} is not aligned to its LMUL={} register group",
                    $role,
                    r.0,
                    g
                );
            }
        }};
    }
    // A destination group may be identical to a source group, but must not
    // partially overlap it.
    macro_rules! no_partial_overlap {
        ($vd:expr, $vs:expr) => {{
            let vd: VReg = $vd;
            let vs: VReg = $vs;
            let g = group(st);
            if st.lmul.is_some() && g > 1 && vd.0 != vs.0 {
                let (d0, d1) = (vd.0 as u32, vd.0 as u32 + g);
                let (s0, s1) = (vs.0 as u32, vs.0 as u32 + g);
                if d0 < s1 && s0 < d1 {
                    emit!(
                        Pass::RegGroupOverlap,
                        "destination group v{}..v{} partially overlaps source group v{}..v{}",
                        d0,
                        d1 - 1,
                        s0,
                        s1 - 1
                    );
                }
            }
        }};
    }
    // A masked op's destination group must not cover the mask register v0.
    macro_rules! no_mask_clobber {
        ($vd:expr, $what:expr) => {{
            let vd: VReg = $vd;
            if vd.0 == 0 {
                emit!(
                    Pass::RegGroupOverlap,
                    "{} writes a destination group containing the mask register v0",
                    $what
                );
            }
        }};
    }
    macro_rules! xval {
        ($r:expr) => {
            st.x_val[$r.0 as usize & 31]
        };
    }

    // `mask-undefined` sink: this instruction *observes* the named group's
    // element values, so policy-unspecified lanes become a finding.
    macro_rules! sink_v {
        ($base:expr, $g:expr, $what:expr) => {{
            let base: VReg = $base;
            match group_garbage(st, base, $g) {
                Tri::Yes => emit!(
                    Pass::MaskUndefined,
                    "{} observes v{} lanes the tail/mask-agnostic policy left unspecified",
                    $what,
                    base.0
                ),
                Tri::Maybe => emit!(
                    Pass::MaskUndefined,
                    "{} may observe v{} lanes the tail/mask-agnostic policy left \
                     unspecified on some path",
                    $what,
                    base.0
                ),
                Tri::No => {}
            }
        }};
    }

    // Record one memory event for bounds inference: the touched buffer
    // region (when the base pointer is attributable) and an upper bound on
    // the bytes the interpreter will count for one execution.
    macro_rules! record_mem {
        ($rs1:expr, $region_of:expr, $bytes:expr) => {{
            if let Some(extras) = extras.as_deref_mut() {
                let region = match xval!($rs1) {
                    XVal::Ptr { buf, lo, hi } => Some($region_of(buf, lo, hi)),
                    _ => None,
                };
                extras.mem_events.push(MemEvent { at, region, bytes: $bytes });
            }
        }};
    }

    match inst {
        Inst::Label(_) | Inst::Ret | Inst::Jump { .. } => {}

        Inst::Li { rd, imm } => set_x(st, *rd, XVal::Const(*imm)),
        Inst::Mv { rd, rs } => {
            read_x!(*rs);
            set_x(st, *rd, xval!(rs));
        }
        Inst::Add { rd, rs1, rs2 } => {
            read_x!(*rs1);
            read_x!(*rs2);
            set_x(st, *rd, XVal::add(xval!(rs1), xval!(rs2)));
        }
        Inst::Addi { rd, rs1, imm } => {
            read_x!(*rs1);
            set_x(st, *rd, XVal::add(xval!(rs1), XVal::Const(*imm)));
        }
        Inst::Sub { rd, rs1, rs2 } => {
            read_x!(*rs1);
            read_x!(*rs2);
            set_x(st, *rd, XVal::sub(xval!(rs1), xval!(rs2)));
        }
        Inst::Mul { rd, rs1, rs2 } => {
            read_x!(*rs1);
            read_x!(*rs2);
            set_x(st, *rd, XVal::mul(xval!(rs1), xval!(rs2)));
        }
        Inst::Slli { rd, rs1, shamt } => {
            read_x!(*rs1);
            set_x(st, *rd, XVal::shl(xval!(rs1), *shamt));
        }
        Inst::Branch { rs1, rs2, .. } => {
            read_x!(*rs1);
            read_x!(*rs2);
        }

        Inst::Flw { fd, rs1, imm } | Inst::Fld { fd, rs1, imm } => {
            read_x!(*rs1);
            let width = if matches!(inst, Inst::Flw { .. }) { 4 } else { 8 };
            if emit {
                check_scalar_load(st, spec, *rs1, *imm, width, at, diags);
            }
            record_mem!(
                *rs1,
                |buf, lo, hi| (buf, b_add(lo, *imm), b_add(b_add(hi, *imm), width)),
                width
            );
            st.f_init[fd.0 as usize & 31] = Tri::Yes;
        }

        Inst::Vsetvli { rd, rs1, sew, lmul, tail_agnostic, mask_agnostic } => {
            read_x!(*rs1);
            if spec.v071_target {
                if lmul.whole().is_none() {
                    emit!(
                        Pass::DialectIllegal,
                        "fractional LMUL {} does not exist in RVV v0.7.1",
                        lmul.token()
                    );
                }
                if *tail_agnostic || *mask_agnostic {
                    emit!(
                        Pass::DialectIllegal,
                        "v1.0 tail/mask policy flags have no v0.7.1 encoding"
                    );
                }
            }
            let vmax = vlmax(*sew, *lmul);
            let (lo, hi) = match xval!(rs1) {
                // The interpreter casts AVL to usize, so a negative AVL is
                // a huge request that clamps to VLMAX.
                XVal::Const(c) if c < 0 => (vmax, vmax),
                XVal::Const(c) => (c.min(vmax), c.min(vmax)),
                XVal::Range { lo, hi } => {
                    if lo < 0 {
                        (0, vmax)
                    } else {
                        (lo.min(vmax), hi.min(vmax))
                    }
                }
                XVal::Ptr { .. } | XVal::Any => (0, vmax),
            };
            // Tail lanes left agnostic by an earlier definition become
            // readable body lanes when `vl` grows: promote them to hard
            // garbage (definitely when the growth is certain, `Maybe` when
            // only some path grows).
            if st.vset != Tri::No {
                if lo > st.vl_hi {
                    for r in 0..32 {
                        st.v_hard[r] = tri_or(st.v_hard[r], st.v_tail[r]);
                    }
                } else if hi > st.vl_hi {
                    for r in 0..32 {
                        st.v_hard[r] = tri_or(st.v_hard[r], tri_maybe(st.v_tail[r]));
                    }
                }
            }
            st.vset = Tri::Yes;
            st.sew = Some(*sew);
            st.lmul = Some(*lmul);
            st.ta = Some(*tail_agnostic);
            st.ma = Some(*mask_agnostic);
            st.vl_lo = lo;
            st.vl_hi = hi;
            if rd.0 != 0 {
                let v = if lo == hi { XVal::Const(lo) } else { XVal::Range { lo, hi } };
                set_x(st, *rd, v);
            }
        }

        Inst::Vle { vd, rs1, eew } => {
            require_vtype!("vector load");
            check_eew(st, *eew, "load", at, emit, diags);
            read_x!(*rs1);
            if emit {
                check_vector_mem(st, spec, *rs1, None, *eew, "vector load", at, diags);
            }
            let eb = eew.bytes() as i64;
            record_mem!(
                *rs1,
                |buf, lo, hi| vec_region(st, None, eb, buf, lo, hi),
                b_mul(st.vl_hi.max(0), eb)
            );
            aligned!(*vd, "load destination");
            def_v!(*vd, group(st));
            apply_v_def(st, *vd, group(st), Tri::No, Tri::No);
            lmul_at[at] = Some(group(st));
        }
        Inst::Vse { vs, rs1, eew } => {
            require_vtype!("vector store");
            check_eew(st, *eew, "store", at, emit, diags);
            read_x!(*rs1);
            read_v!(*vs, group(st));
            sink_v!(*vs, group(st), "vector store");
            if emit {
                check_vector_mem(st, spec, *rs1, None, *eew, "vector store", at, diags);
            }
            let eb = eew.bytes() as i64;
            record_mem!(
                *rs1,
                |buf, lo, hi| vec_region(st, None, eb, buf, lo, hi),
                b_mul(st.vl_hi.max(0), eb)
            );
            aligned!(*vs, "store source");
            lmul_at[at] = Some(group(st));
        }
        Inst::Vlse { vd, rs1, stride, eew } => {
            require_vtype!("strided vector load");
            check_eew(st, *eew, "load", at, emit, diags);
            read_x!(*rs1);
            read_x!(*stride);
            if emit {
                check_vector_mem(
                    st,
                    spec,
                    *rs1,
                    Some(*stride),
                    *eew,
                    "strided vector load",
                    at,
                    diags,
                );
            }
            let eb = eew.bytes() as i64;
            let sb = match xval!(stride) {
                XVal::Const(s) => Some(s),
                _ => None,
            };
            record_mem!(
                *rs1,
                |buf, lo, hi| match sb {
                    Some(s) => vec_region(st, Some(s), eb, buf, lo, hi),
                    None => (buf, NEG_INF, POS_INF),
                },
                b_mul(st.vl_hi.max(0), eb)
            );
            aligned!(*vd, "load destination");
            def_v!(*vd, group(st));
            apply_v_def(st, *vd, group(st), Tri::No, Tri::No);
            lmul_at[at] = Some(group(st));
        }
        Inst::Vsse { vs, rs1, stride, eew } => {
            require_vtype!("strided vector store");
            check_eew(st, *eew, "store", at, emit, diags);
            read_x!(*rs1);
            read_x!(*stride);
            read_v!(*vs, group(st));
            sink_v!(*vs, group(st), "strided vector store");
            if emit {
                check_vector_mem(
                    st,
                    spec,
                    *rs1,
                    Some(*stride),
                    *eew,
                    "strided vector store",
                    at,
                    diags,
                );
            }
            let eb = eew.bytes() as i64;
            let sb = match xval!(stride) {
                XVal::Const(s) => Some(s),
                _ => None,
            };
            record_mem!(
                *rs1,
                |buf, lo, hi| match sb {
                    Some(s) => vec_region(st, Some(s), eb, buf, lo, hi),
                    None => (buf, NEG_INF, POS_INF),
                },
                b_mul(st.vl_hi.max(0), eb)
            );
            aligned!(*vs, "store source");
            lmul_at[at] = Some(group(st));
        }

        Inst::VfVV { op, vd, vs1, vs2 } => {
            require_vtype!(op.stem());
            fp64_guard!(op.stem());
            read_v!(*vs1, group(st));
            read_v!(*vs2, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            aligned!(*vs2, "source");
            no_partial_overlap!(*vd, *vs1);
            no_partial_overlap!(*vd, *vs2);
            def_v!(*vd, group(st));
            let g = group(st);
            let sh = tri_or(group_shadow(st, *vs1, g), group_shadow(st, *vs2, g));
            let hd = tri_or(group_hard(st, *vs1, g), group_hard(st, *vs2, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::VfVF { op, vd, vs1, fs2 } => {
            require_vtype!(op.stem());
            fp64_guard!(op.stem());
            read_v!(*vs1, group(st));
            read_f!(*fs2);
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            no_partial_overlap!(*vd, *vs1);
            def_v!(*vd, group(st));
            let g = group(st);
            let (sh, hd) = (group_shadow(st, *vs1, g), group_hard(st, *vs1, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::VfmaccVV { vd, vs1, vs2 } => {
            require_vtype!("vfmacc.vv");
            fp64_guard!("vfmacc.vv");
            read_v!(*vd, group(st));
            read_v!(*vs1, group(st));
            read_v!(*vs2, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            aligned!(*vs2, "source");
            no_partial_overlap!(*vd, *vs1);
            no_partial_overlap!(*vd, *vs2);
            def_v!(*vd, group(st));
            let g = group(st);
            let sh = tri_or(
                group_shadow(st, *vd, g),
                tri_or(group_shadow(st, *vs1, g), group_shadow(st, *vs2, g)),
            );
            let hd = tri_or(
                group_hard(st, *vd, g),
                tri_or(group_hard(st, *vs1, g), group_hard(st, *vs2, g)),
            );
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::VfmaccVF { vd, fs1, vs2 } => {
            require_vtype!("vfmacc.vf");
            fp64_guard!("vfmacc.vf");
            read_v!(*vd, group(st));
            read_f!(*fs1);
            read_v!(*vs2, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs2, "source");
            no_partial_overlap!(*vd, *vs2);
            def_v!(*vd, group(st));
            let g = group(st);
            let sh = tri_or(group_shadow(st, *vd, g), group_shadow(st, *vs2, g));
            let hd = tri_or(group_hard(st, *vd, g), group_hard(st, *vs2, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::ViVV { op, vd, vs1, vs2 } => {
            require_vtype!(op.stem());
            read_v!(*vs1, group(st));
            read_v!(*vs2, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            aligned!(*vs2, "source");
            no_partial_overlap!(*vd, *vs1);
            no_partial_overlap!(*vd, *vs2);
            def_v!(*vd, group(st));
            let g = group(st);
            let sh = tri_or(group_shadow(st, *vs1, g), group_shadow(st, *vs2, g));
            let hd = tri_or(group_hard(st, *vs1, g), group_hard(st, *vs2, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::VaddVI { vd, vs1, .. } => {
            require_vtype!("vadd.vi");
            read_v!(*vs1, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            no_partial_overlap!(*vd, *vs1);
            def_v!(*vd, group(st));
            let g = group(st);
            let (sh, hd) = (group_shadow(st, *vs1, g), group_hard(st, *vs1, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }

        Inst::VmfltVF { vd, vs1, fs2 } | Inst::VmfgeVF { vd, vs1, fs2 } => {
            let what = if matches!(inst, Inst::VmfltVF { .. }) { "vmflt.vf" } else { "vmfge.vf" };
            require_vtype!(what);
            fp64_guard!(what);
            read_v!(*vs1, group(st));
            read_f!(*fs2);
            aligned!(*vs1, "source");
            // Mask-producing compares write a single register regardless
            // of LMUL.
            def_v!(*vd, 1);
            // Garbage input lanes produce garbage mask bits (and a compare
            // into v0 retires the old mask, orphaning its shadows).
            let (sh, hd) = (group_shadow(st, *vs1, group(st)), group_hard(st, *vs1, group(st)));
            apply_v_def(st, *vd, 1, sh, hd);
            lmul_at[at] = Some(1);
        }
        Inst::VmergeVVM { vd, vs2, vs1 } => {
            require_vtype!("vmerge.vvm");
            read_v!(VReg(0), 1);
            sink_v!(VReg(0), 1, "vmerge.vvm's mask");
            read_v!(*vs1, group(st));
            read_v!(*vs2, group(st));
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            aligned!(*vs2, "source");
            no_partial_overlap!(*vd, *vs1);
            no_partial_overlap!(*vd, *vs2);
            no_mask_clobber!(*vd, "vmerge.vvm");
            def_v!(*vd, group(st));
            // The merge selects vs1 at mask-active lanes — exactly the
            // lanes where vs1's shadow garbage is NOT — so shadow garbage
            // in vs1 is discarded. vs2 is selected at the inactive lanes,
            // where its shadow garbage (if any) lives on; hard garbage has
            // no selecting mask and survives from either source.
            let g = group(st);
            let sh = group_shadow(st, *vs2, g);
            let hd = tri_or(group_hard(st, *vs1, g), group_hard(st, *vs2, g));
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }
        Inst::VfsqrtV { vd, vs1, masked } => {
            let what = if *masked { "vfsqrt.v (masked)" } else { "vfsqrt.v" };
            require_vtype!(what);
            fp64_guard!(what);
            read_v!(*vs1, group(st));
            if *masked {
                read_v!(VReg(0), 1);
                sink_v!(VReg(0), 1, "masked vfsqrt.v's mask");
                no_mask_clobber!(*vd, what);
            }
            aligned!(*vd, "destination");
            aligned!(*vs1, "source");
            no_partial_overlap!(*vd, *vs1);
            // A masked sqrt defines vd for initialisation purposes even
            // though inactive elements keep their old value: the codegen
            // idiom guards every later read with the same mask, and
            // requiring prior init here would flag correct programs.
            def_v!(*vd, group(st));
            let g = group(st);
            let src_hd = group_hard(st, *vs1, g);
            let (sh, hd) = if *masked {
                // Under `ma` the mask-inactive lanes of vd become agnostic:
                // that is the origin of shadow garbage. Under `mu` they
                // keep vd's old content (and old flags).
                let (old_sh, old_hd) = (group_shadow(st, *vd, g), group_hard(st, *vd, g));
                match st.ma {
                    Some(true) => (Tri::Yes, src_hd),
                    Some(false) => (old_sh, tri_or(old_hd, src_hd)),
                    None => (Tri::join(old_sh, Tri::Yes), tri_or(old_hd, src_hd)),
                }
            } else {
                (group_shadow(st, *vs1, g), src_hd)
            };
            apply_v_def(st, *vd, g, sh, hd);
            lmul_at[at] = Some(g);
        }

        Inst::VmvVX { vd, rs1 } => {
            require_vtype!("vmv.v.x");
            read_x!(*rs1);
            aligned!(*vd, "destination");
            def_v!(*vd, group(st));
            apply_v_def(st, *vd, group(st), Tri::No, Tri::No);
            lmul_at[at] = Some(group(st));
        }
        Inst::VfmvVF { vd, fs1 } => {
            require_vtype!("vfmv.v.f");
            fp64_guard!("vfmv.v.f");
            read_f!(*fs1);
            aligned!(*vd, "destination");
            def_v!(*vd, group(st));
            apply_v_def(st, *vd, group(st), Tri::No, Tri::No);
            lmul_at[at] = Some(group(st));
        }
        Inst::VfmvFS { fd, vs1 } => {
            require_vtype!("vfmv.f.s");
            // Reads element 0 only: just the base register of the group.
            read_v!(*vs1, 1);
            sink_v!(*vs1, 1, "vfmv.f.s");
            st.f_init[fd.0 as usize & 31] = Tri::Yes;
            lmul_at[at] = Some(1);
        }
        Inst::Vfredusum { vd, vs1, vs2 } | Inst::Vfredosum { vd, vs1, vs2 } => {
            let what = if matches!(inst, Inst::Vfredusum { .. }) {
                "vfredusum.vs"
            } else {
                "vfredosum.vs"
            };
            require_vtype!(what);
            fp64_guard!(what);
            read_v!(*vs1, group(st));
            sink_v!(*vs1, group(st), what);
            // The scalar accumulator is element 0 of vs2.
            read_v!(*vs2, 1);
            sink_v!(*vs2, 1, what);
            aligned!(*vs1, "source");
            // Reductions write element 0 of vd only; lanes past it are
            // tail lanes (agnostic under `ta`), which `apply_v_def`'s tail
            // rule records.
            def_v!(*vd, 1);
            apply_v_def(st, *vd, 1, Tri::No, Tri::No);
            lmul_at[at] = Some(1);
        }
    }
}

/// Absolute byte region a vector memory op can touch, given the base
/// pointer's `[lo, hi]` offset interval into `buf`, the per-element width
/// `eb` and an optional constant byte stride.
fn vec_region(
    st: &AbsState,
    stride_bytes: Option<i64>,
    eb: i64,
    buf: u16,
    lo: i64,
    hi: i64,
) -> (u16, i64, i64) {
    let vl = st.vl_hi.max(0);
    if vl == 0 {
        return (buf, lo, lo);
    }
    match stride_bytes {
        Some(s) => {
            let last = b_mul(vl - 1, s);
            (buf, b_add(lo, last.min(0)), b_add(hi, b_add(last.max(0), eb)))
        }
        None => (buf, lo, b_add(hi, b_mul(vl, eb))),
    }
}

fn set_x(st: &mut AbsState, rd: XReg, v: XVal) {
    let r = rd.0 as usize & 31;
    if r == 0 {
        return;
    }
    st.x_init[r] = Tri::Yes;
    st.x_val[r] = v;
}

/// `eew-sew-mismatch`: v0.7.1 memory is SEW-typed, so a v1.0 program whose
/// memory EEW differs from the reaching SEW can never roll back (and is
/// almost always a bug in v1.0 too).
fn check_eew(
    st: &AbsState,
    eew: Sew,
    what: &str,
    at: usize,
    emit: bool,
    diags: &mut Vec<Diagnostic>,
) {
    if !emit {
        return;
    }
    if let Some(sew) = st.sew {
        if sew != eew {
            diags.push(Diagnostic::at(
                Pass::EewSewMismatch,
                at,
                format!(
                    "vector {what} encodes EEW={} but the reaching SEW is {}; \
                     v0.7.1 memory ops are SEW-typed so this cannot roll back",
                    eew.token(),
                    sew.token()
                ),
            ));
        }
    }
}

fn buffer_name(spec: &AnalysisSpec, buf: u16) -> &str {
    spec.buffers.get(buf as usize).map(|b| b.name.as_str()).unwrap_or("?")
}

/// `oob-access` for scalar float loads from a declared buffer.
fn check_scalar_load(
    st: &AbsState,
    spec: &AnalysisSpec,
    rs1: XReg,
    imm: i64,
    width: i64,
    at: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let XVal::Ptr { buf, lo, hi } = st.x_val[rs1.0 as usize & 31] else { return };
    if lo == NEG_INF || hi == POS_INF {
        return;
    }
    let Some(extent) = spec.buffers.get(buf as usize).map(|b| b.len_bytes) else { return };
    let name = buffer_name(spec, buf);
    let start = b_add(lo, imm);
    let end = b_add(b_add(hi, imm), width);
    if start < 0 {
        diags.push(Diagnostic::at(
            Pass::OobAccess,
            at,
            format!("scalar load may start {} bytes before buffer `{name}`", -start),
        ));
    }
    if end > extent {
        let verb = if b_add(b_add(lo, imm), width) > extent { "reads" } else { "may read" };
        diags.push(Diagnostic::at(
            Pass::OobAccess,
            at,
            format!("scalar load {verb} past the end of buffer `{name}` (len {extent} bytes)"),
        ));
    }
}

/// `oob-access` for vector loads/stores. Only fires when the base-pointer
/// offset interval, the stride and `vl` are all finite, so widened
/// loop-carried pointers (the strip-mine idiom) never produce a report.
#[allow(clippy::too_many_arguments)]
fn check_vector_mem(
    st: &AbsState,
    spec: &AnalysisSpec,
    rs1: XReg,
    stride: Option<XReg>,
    eew: Sew,
    what: &str,
    at: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let XVal::Ptr { buf, lo, hi } = st.x_val[rs1.0 as usize & 31] else { return };
    if lo == NEG_INF || hi == POS_INF {
        return;
    }
    let Some(extent) = spec.buffers.get(buf as usize).map(|b| b.len_bytes) else { return };
    if st.vl_hi == 0 {
        // vl is definitely zero: no element is touched.
        return;
    }
    let eb = eew.bytes() as i64;
    let stride_bytes = match stride {
        None => eb,
        Some(sr) => match st.x_val[sr.0 as usize & 31] {
            XVal::Const(s) => s,
            // Unknown stride: stay silent rather than guess.
            _ => return,
        },
    };
    let name = buffer_name(spec, buf);
    // Byte span touched relative to the base address, as a function of the
    // element count vl: first byte min(0, (vl-1)*stride), last byte
    // max(0, (vl-1)*stride) + eb.
    let span = |vl: i64| -> (i64, i64) {
        let last = b_mul(vl - 1, stride_bytes);
        (last.min(0), b_add(last.max(0), eb))
    };
    let (min_start, min_end) = span(st.vl_lo.max(1));
    let (max_start, max_end) = span(st.vl_hi);

    if b_add(lo, max_start) < 0 {
        let verb = if b_add(hi, min_start) < 0 && st.vl_lo > 0 { "starts" } else { "may start" };
        diags.push(Diagnostic::at(
            Pass::OobAccess,
            at,
            format!("{what} {verb} before buffer `{name}`"),
        ));
    }
    if b_add(hi, max_end) > extent {
        let definite = st.vl_lo > 0 && b_add(lo, min_end) > extent;
        let verb = if definite { "accesses bytes" } else { "may access bytes" };
        diags.push(Diagnostic::at(
            Pass::OobAccess,
            at,
            format!(
                "{what} {verb} past the end of buffer `{name}` (len {extent} bytes, \
                 access ends at byte {})",
                b_add(hi, max_end)
            ),
        ));
    }
}

#[cfg(test)]
mod fuel_tests {
    use super::*;
    use rvhpc_rvv::{parse_program, Dialect};

    const LOOPY: &str = "\
    vsetvli x5, x10, e32, m1, ta, ma
    vfmv.v.f v1, f0
loop:
    vfadd.vv v1, v1, v1
    sub x10, x10, x5
    bne x10, x0, loop
    vse32.v v1, (x11)
    ret
";

    #[test]
    fn tiny_fuel_budget_reports_exhaustion_and_nothing_else() {
        let p = parse_program(LOOPY, Dialect::V10).unwrap();
        let out = analyze_with_fuel(&p, &AnalysisSpec::liberal(), Some(2));
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert_eq!(out.diags[0].pass, Pass::WideningExhausted);
        assert!(out.diags[0].message.contains("widening fuel"), "{}", out.diags[0].message);
        assert!(out.bounds.is_none(), "half-settled states must not yield bounds");
    }

    #[test]
    fn default_fuel_settles_the_same_program() {
        let p = parse_program(LOOPY, Dialect::V10).unwrap();
        let out = analyze_with_fuel(&p, &AnalysisSpec::liberal(), None);
        assert!(out.diags.iter().all(|d| d.pass != Pass::WideningExhausted), "{:#?}", out.diags);
        assert!(out.bounds.is_some());
    }

    #[test]
    fn default_fuel_scales_with_block_count() {
        assert_eq!(default_fuel(1), FIXPOINT_FUEL_MIN);
        assert_eq!(default_fuel(100), 100 * FIXPOINT_FUEL_PER_BLOCK);
    }
}
