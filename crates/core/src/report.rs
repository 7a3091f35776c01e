//! Report structures for figures and tables, with markdown/CSV/JSON
//! rendering.
//!
//! An artefact keeps its numbers until a renderer writes them. A figure
//! holds each class's mean and whiskers as `f64`s in a fixed array per
//! series; a table holds each cell as a [`Cell`], a value with its format
//! (text, an integer or a [`Fixed`] number). Ids, titles, headers and
//! series labels are `&'static str`s (a table title may be owned). Every
//! renderer (markdown, CSV, JSON and the ASCII chart) writes a cell, or a
//! figure's number, through one routine that lays numbers out on the
//! stack, into an output buffer reserved once. So building and rendering
//! an artefact allocates its series or cell `Vec` and that buffer, and
//! nothing per cell.

use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_trace::json::JsonWriter;
use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use std::slice::ChunksExact;

/// A number rendered with a fixed count of decimals, byte for byte as
/// std's `{:.N}` (or `{:+.N}` when [`Fixed::signed`]) renders it.
///
/// A finite value below `1e15` in magnitude, at up to four decimals, is
/// rendered here with integer arithmetic: its exact binary value
/// `mantissa · 2^exponent` is scaled by `10^N` and rounded half to even,
/// as std rounds, and the digits are written directly, at well under half
/// the cost of std's exact path. Anything else (NaN, ±∞, larger
/// magnitudes, more decimals) goes to std's formatter.
#[derive(Debug, Clone, Copy)]
pub struct Fixed {
    x: f64,
    decimals: usize,
    plus: bool,
}

impl Fixed {
    /// The most decimals rendered without std.
    const MAX_DECIMALS: usize = 4;

    /// `x` as `{:.decimals}` renders it.
    pub fn new(x: f64, decimals: usize) -> Fixed {
        Fixed { x, decimals, plus: false }
    }

    /// `x` as `{:+.decimals}` renders it: with a sign, `+` included.
    pub fn signed(x: f64, decimals: usize) -> Fixed {
        Fixed { x, decimals, plus: true }
    }

    /// Write the rendering into the tail of `buf` and return it, or `None`
    /// when the value is std's to render. `buf` holds a sign, sixteen
    /// integer digits (`|x| < 1e15` can round up to `1e15`), the point and
    /// four decimals.
    fn exact(self, buf: &mut [u8; 24]) -> Option<&str> {
        const POW10: [u128; Fixed::MAX_DECIMALS + 1] = [1, 10, 100, 1_000, 10_000];
        if self.decimals > Fixed::MAX_DECIMALS || self.x.is_nan() || self.x.abs() >= 1e15 {
            return None;
        }
        let bits = self.x.to_bits();
        let biased = (bits >> 52 & 0x7ff) as i32;
        let fraction = bits & ((1 << 52) - 1);
        // |x| = mantissa · 2^-k exactly; as |x| < 1e15 < 2^52, k ≥ 1.
        let (mantissa, k) =
            if biased == 0 { (fraction, 1074) } else { (fraction | 1 << 52, 1075 - biased) };
        // `scaled` is below 2^53 · 10^4 < 2^67: with k ≥ 128 the quotient
        // is 0 and the remainder below half, so the value rounds to 0. The
        // rounded value is at most 10^15 · 10^4, so it fits a `u64`.
        let scaled = u128::from(mantissa) * POW10[self.decimals];
        let mut n = if k >= 128 {
            0
        } else {
            let k = k as u32;
            let (q, r, half) = (scaled >> k, scaled & ((1 << k) - 1), 1 << (k - 1));
            (q + u128::from(r > half || (r == half && q & 1 == 1))) as u64
        };
        let mut at = buf.len();
        for _ in 0..self.decimals {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        if self.decimals > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        at = put_integer(buf, at, n);
        if self.x.is_sign_negative() {
            at -= 1;
            buf[at] = b'-';
        } else if self.plus {
            at -= 1;
            buf[at] = b'+';
        }
        std::str::from_utf8(&buf[at..]).ok()
    }
}

/// Write `n` in decimal into `buf` so that it ends before `end`, and
/// return where it starts.
fn put_integer(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut at = end;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.exact(&mut [0; 24]) {
            Some(text) => f.write_str(text),
            None if self.plus => write!(f, "{:+.*}", self.decimals, self.x),
            None => write!(f, "{:.*}", self.decimals, self.x),
        }
    }
}

/// One table cell: a value and the format it is written in. A cell keeps
/// its number until a renderer writes it.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Text, written as it is.
    Text(Cow<'static, str>),
    /// An integer, in decimal.
    Int(usize),
    /// A number at a fixed count of decimals.
    Fixed(Fixed),
}

impl Cell {
    /// The most bytes a cell's number is written in, and what a renderer
    /// reserves for it: a [`Fixed`] below `1e15` with its sign, point and
    /// four decimals, or a 64-bit integer.
    const NUMBER_LEN: usize = 24;

    /// Hand `f` the cell's text: the one routine through which every
    /// renderer writes a cell, and a figure its numbers. A number is laid
    /// out in a buffer on the stack; only a [`Fixed`] that std renders
    /// (NaN, ±∞, a magnitude of `1e15` or more, more than four decimals)
    /// is written into a `String` first.
    fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            Cell::Text(text) => f(text),
            Cell::Int(n) => {
                let mut buf = [0; 20];
                let at = put_integer(&mut buf, 20, *n as u64);
                f(std::str::from_utf8(&buf[at..]).expect("decimal digits"))
            }
            Cell::Fixed(x) => match x.exact(&mut [0; 24]) {
                Some(text) => f(text),
                None => f(&x.to_string()),
            },
        }
    }

    /// The cell's number, unrounded: an integer or a [`Fixed`]'s value.
    /// Text has none.
    pub fn number(&self) -> Option<f64> {
        match self {
            Cell::Text(_) => None,
            Cell::Int(n) => Some(*n as f64),
            Cell::Fixed(x) => Some(x.x),
        }
    }

    /// Append the cell's text to `out`.
    fn write_to(&self, out: &mut String) {
        self.with_text(|text| out.push_str(text));
    }

    /// At least the length of the cell's text, bar std-rendered numbers.
    fn len_bound(&self) -> usize {
        match self {
            Cell::Text(text) => text.len(),
            Cell::Int(_) | Cell::Fixed(_) => Cell::NUMBER_LEN,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_text(|text| f.write_str(text))
    }
}

impl From<&'static str> for Cell {
    fn from(text: &'static str) -> Cell {
        Cell::Text(Cow::Borrowed(text))
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Text(Cow::Owned(text))
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n)
    }
}

impl From<Fixed> for Cell {
    fn from(x: Fixed) -> Cell {
        Cell::Fixed(x)
    }
}

/// Mean + whisker statistics for one benchmark class (one bar of a paper
/// figure).
#[derive(Debug, Clone, Copy)]
pub struct ClassStat {
    /// The class.
    pub class: KernelClass,
    /// Mean of the per-kernel values.
    pub mean: f64,
    /// Minimum (bottom whisker).
    pub min: f64,
    /// Maximum (top whisker).
    pub max: f64,
}

impl ClassStat {
    /// Aggregate per-kernel values into a bar.
    pub fn from_values(class: KernelClass, values: &[f64]) -> Self {
        let mean = crate::suite::class_mean(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ClassStat { class, mean, min, max }
    }

    /// One bar per class, in `KernelClass::ALL` order, over per-kernel
    /// values given in `KernelName::ALL` order; both are fixed arrays, so
    /// the aggregation allocates nothing.
    ///
    /// `KernelName::ALL` lists the kernels grouped by class in
    /// `KernelClass::ALL` order, so each class is one contiguous run of
    /// `values`, and each mean sums its run in `KernelName::ALL` order,
    /// exactly as a per-class filter of the suite would.
    pub fn per_class(values: &[f64; KernelName::ALL.len()]) -> [ClassStat; KernelClass::ALL.len()] {
        let mut start = 0;
        let stats = KernelClass::ALL.map(|class| {
            let len = KernelName::ALL[start..].iter().take_while(|k| k.class() == class).count();
            let stat = ClassStat::from_values(class, &values[start..start + len]);
            start += len;
            stat
        });
        debug_assert_eq!(start, values.len(), "KernelName::ALL must be grouped by class");
        stats
    }

    /// Write the bar's `mean [min, max]`, each number signed at two
    /// decimals: a figure's markdown cell and chart line.
    fn write_whiskers(&self, out: &mut String) {
        let put = |out: &mut String, v: f64| Cell::Fixed(Fixed::signed(v, 2)).write_to(out);
        put(out, self.mean);
        out.push_str(" [");
        put(out, self.min);
        out.push_str(", ");
        put(out, self.max);
        out.push(']');
    }
}

/// One plotted series (one machine/configuration across the six classes).
#[derive(Debug, Clone)]
pub struct SeriesStat {
    /// Legend label.
    pub label: &'static str,
    /// One bar per class, in `KernelClass::ALL` order.
    pub classes: [ClassStat; KernelClass::ALL.len()],
}

impl SeriesStat {
    /// A series over per-kernel values in `KernelName::ALL` order.
    pub fn from_kernel_values(
        label: &'static str,
        values: &[f64; KernelName::ALL.len()],
    ) -> SeriesStat {
        SeriesStat { label, classes: ClassStat::per_class(values) }
    }

    /// The bar for a class.
    pub fn class(&self, class: KernelClass) -> Option<&ClassStat> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Mean across all classes (the "on average" numbers the paper quotes).
    pub fn overall_mean(&self) -> f64 {
        crate::suite::class_mean(&self.classes.map(|c| c.mean))
    }
}

/// A figure: several series over the six classes.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. "Figure 1".
    pub id: &'static str,
    /// Caption.
    pub title: &'static str,
    /// Value axis label.
    pub value_label: &'static str,
    /// The series.
    pub series: Vec<SeriesStat>,
}

impl FigureReport {
    /// The id, title and value label, plus `per_series` bytes for each
    /// series and its label: what a rendering reserves.
    fn len_bound(&self, per_series: usize) -> usize {
        let labels: usize = self.series.iter().map(|s| s.label.len()).sum();
        128 + self.id.len()
            + self.title.len()
            + self.value_label.len()
            + labels
            + per_series * self.series.len()
    }

    /// Render as a markdown table (classes × series, `mean [min, max]`).
    pub fn to_markdown(&self) -> String {
        // A header cell, and a `mean [min, max]` cell in each class row.
        let per_series = 8 + KernelClass::ALL.len() * (3 * Cell::NUMBER_LEN + 8);
        let mut out =
            String::with_capacity(self.len_bound(per_series) + 16 * KernelClass::ALL.len());
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out, "*{}*", self.value_label);
        out.push_str("\n| class |");
        for s in &self.series {
            out.push(' ');
            out.push_str(s.label);
            out.push_str(" |");
        }
        out.push_str("\n|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for class in KernelClass::ALL {
            let _ = write!(out, "| {class} |");
            for s in &self.series {
                match s.class(class) {
                    Some(c) => {
                        out.push(' ');
                        c.write_whiskers(&mut out);
                        out.push_str(" |");
                    }
                    None => out.push_str(" – |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an ASCII bar chart with whiskers — the closest terminal
    /// analogue of the paper's figures. Bars are scaled symmetrically
    /// around zero (the baseline) to the largest |mean|.
    pub fn to_ascii_chart(&self) -> String {
        const HALF: usize = 30; // columns each side of the zero axis
        let scale = self
            .series
            .iter()
            .flat_map(|s| s.classes.iter())
            .map(|c| c.mean.abs())
            .fold(1e-9, f64::max);
        // A line per class: its label, the bars (`█` is three bytes) and
        // its whiskers.
        let per_series = 8 + KernelClass::ALL.len() * (16 + 4 * HALF + 3 * Cell::NUMBER_LEN + 8);
        let mut out = String::with_capacity(self.len_bound(per_series));
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        out.push('(');
        out.push_str(self.value_label);
        out.push_str("; axis spans ±");
        Cell::Fixed(Fixed::new(scale, 2)).write_to(&mut out);
        out.push_str(")\n\n");
        let columns = |out: &mut String, c: char, n: usize| out.extend(std::iter::repeat_n(c, n));
        for s in &self.series {
            out.push_str(s.label);
            out.push('\n');
            for c in &s.classes {
                let n = ((c.mean.abs() / scale) * HALF as f64).round() as usize;
                let n = n.min(HALF);
                let (neg, pos) = if c.mean >= 0.0 { (0, n) } else { (n, 0) };
                let _ = write!(out, "  {:<10} ", c.class.label());
                columns(&mut out, ' ', HALF - neg);
                columns(&mut out, '█', neg);
                out.push('|');
                columns(&mut out, '█', pos);
                columns(&mut out, ' ', HALF - pos);
                out.push(' ');
                c.write_whiskers(&mut out);
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`series,class,mean,min,max`).
    pub fn to_csv(&self) -> String {
        let per_series = KernelClass::ALL.len() * (16 + 3 * (Cell::NUMBER_LEN + 1));
        let mut out = String::with_capacity(self.len_bound(per_series));
        out.push_str("series,class,mean,min,max\n");
        for s in &self.series {
            for c in &s.classes {
                out.push_str(s.label);
                out.push(',');
                out.push_str(c.class.label());
                for v in [c.mean, c.min, c.max] {
                    out.push(',');
                    Cell::Fixed(Fixed::new(v, 4)).write_to(&mut out);
                }
                out.push('\n');
            }
        }
        out
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        // Reserve the whole document: a class's object renders in under
        // 192 bytes.
        let classes: usize = self.series.iter().map(|s| s.classes.len()).sum();
        let mut w = JsonWriter::pretty(256 + 64 * self.series.len() + 192 * classes);
        w.open_object();
        w.key("id").string(self.id);
        w.key("title").string(self.title);
        w.key("value_label").string(self.value_label);
        w.key("series").open_array();
        for s in &self.series {
            w.open_object();
            w.key("label").string(s.label);
            w.key("classes").open_array();
            for c in &s.classes {
                w.open_object();
                w.key("class").string(c.class.label());
                w.key("mean").number(c.mean);
                w.key("min").number(c.min);
                w.key("max").number(c.max);
                w.close_object();
            }
            w.close_array().close_object();
        }
        w.close_array().close_object();
        w.finish()
    }
}

/// A table: a header row and rows of cells (Tables 1–4, Figure 3 and the
/// inspection views).
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table identifier, e.g. "Table 1".
    pub id: &'static str,
    /// Caption.
    pub title: Cow<'static, str>,
    /// Column headers.
    pub headers: &'static [&'static str],
    /// The cells, row by row: each row is `headers.len()` cells.
    pub cells: Vec<Cell>,
}

impl TableReport {
    /// The rows, each `headers.len()` cells.
    pub fn rows(&self) -> ChunksExact<'_, Cell> {
        debug_assert_eq!(self.cells.len() % self.headers.len(), 0, "whole rows only");
        self.cells.chunks_exact(self.headers.len())
    }

    /// The id, title, headers and cells, plus `per_item` bytes for each
    /// header and cell and `per_row` for each row: what a rendering
    /// reserves.
    fn len_bound(&self, per_item: usize, per_row: usize) -> usize {
        let headers: usize = self.headers.iter().map(|h| h.len() + per_item).sum();
        let cells: usize = self.cells.iter().map(|c| c.len_bound() + per_item).sum();
        64 + self.id.len() + self.title.len() + headers + cells + per_row * self.rows().len()
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(self.len_bound(8, 2));
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        out.push_str("\n|");
        for h in self.headers {
            out.push(' ');
            out.push_str(h);
            out.push_str(" |");
        }
        out.push_str("\n|");
        for _ in self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in self.rows() {
            out.push('|');
            for cell in row {
                out.push(' ');
                cell.write_to(&mut out);
                out.push_str(" |");
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.len_bound(1, 1));
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(h);
        }
        out.push('\n');
        for row in self.rows() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                cell.write_to(&mut out);
            }
            out.push('\n');
        }
        out
    }

    /// Render as pretty-printed JSON (rows as header-keyed objects).
    pub fn to_json(&self) -> String {
        // Reserve the whole document: every row repeats the headers as keys,
        // and a header or cell line adds under 16 bytes of quotes,
        // separators and indentation to its text.
        let header_text: usize = self.headers.iter().map(|h| h.len() + 8).sum();
        let cells: usize = self
            .rows()
            .map(|row| 16 + header_text + row.iter().map(|c| c.len_bound() + 8).sum::<usize>())
            .sum();
        let mut w = JsonWriter::pretty(256 + self.title.len() + 2 * header_text + cells);
        w.open_object();
        w.key("id").string(self.id);
        w.key("title").string(&self.title);
        w.key("headers").open_array();
        for h in self.headers {
            w.string(h);
        }
        w.close_array();
        w.key("rows").open_array();
        for row in self.rows() {
            w.open_object();
            for (h, cell) in self.headers.iter().zip(row) {
                w.key(h);
                cell.with_text(|text| w.string(text));
            }
            w.close_object();
        }
        w.close_array().close_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_trace::json::Json;

    /// SplitMix64: a seeded stream for the renderer's comparison.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One value of the comparison, drawn from the class `i % 7`.
    fn fixed_probe(i: u64, state: &mut u64) -> f64 {
        let r = splitmix(state);
        let sign = r & 1 << 63;
        let nudge =
            |x: f64, by: u64| f64::from_bits(x.to_bits().wrapping_add(by % 7).wrapping_sub(3));
        match i % 7 {
            // Any bit pattern: mostly tiny or huge.
            0 => f64::from_bits(r),
            // Magnitudes 2^-30 .. 2^50, every mantissa bit random.
            1 => f64::from_bits(sign | (993 + (r >> 52 & 0x7f) % 81) << 52 | r & ((1 << 52) - 1)),
            // Exact ties at every decimal count: k/2, k/4, ..., k/32.
            2 => {
                let k = (r >> 8) % (1 << 40) + (r >> 48) % 3 * 999_999_999_000_000;
                let x = (k >> (r & 7)) as f64 / f64::from(1u32 << (1 + (r >> 3) % 5));
                f64::from_bits(x.to_bits() | sign)
            }
            // ±0 and subnormals.
            3 => f64::from_bits(sign | (r % (1 << 52)) >> (r >> 52 & 63)),
            // Either side of 1e15.
            4 => f64::from_bits(sign | 1e15f64.to_bits().wrapping_add(r % 2001).wrapping_sub(1000)),
            // A few ulps from a rounding boundary j.5 / 10^d.
            5 => {
                let d = (r >> 8) % 5;
                let j = ((r >> 16) % 1_000_000_000) >> (r >> 46 & 15);
                nudge((j as f64 + 0.5) / [1.0, 1e1, 1e2, 1e3, 1e4][d as usize], r >> 56)
            }
            // NaN (any payload) and ±∞.
            _ => [f64::from_bits(r | 0x7ff8 << 48), f64::INFINITY, f64::NEG_INFINITY]
                [(r % 3) as usize],
        }
    }

    #[test]
    fn fixed_renders_byte_for_byte_as_std() {
        for (x, expect) in [(0.125, "0.12"), (0.375, "0.38"), (-0.001, "-0.00"), (2.5, "2.50")] {
            assert_eq!(Fixed::new(x, 2).to_string(), expect);
        }
        assert_eq!(Fixed::signed(0.0, 2).to_string(), "+0.00");
        assert_eq!(Fixed::new(-0.0, 0).to_string(), "-0");
        assert_eq!(Fixed::new(0.5, 0).to_string(), "0");
        assert_eq!(Fixed::signed(-1e300, 1).to_string(), format!("{:+.1}", -1e300));
        assert_eq!(Fixed::new(1.0, 5).to_string(), "1.00000");
        let mut state = 0x5eed_f1ed;
        let (mut ours, mut std) = (String::new(), String::new());
        for i in 0..1_000_000 {
            let x = fixed_probe(i, &mut state);
            for decimals in 0..=Fixed::MAX_DECIMALS {
                for plus in [false, true] {
                    let fixed = Fixed { x, decimals, plus };
                    // Std renders these itself, at hundreds of digits
                    // each; it is enough that they never reach the
                    // integer path.
                    if x.abs() >= 1e17 {
                        assert!(fixed.exact(&mut [0; 24]).is_none(), "{x:e}");
                        continue;
                    }
                    ours.clear();
                    std.clear();
                    let _ = write!(ours, "{fixed}");
                    let _ = if plus {
                        write!(std, "{x:+.decimals$}")
                    } else {
                        write!(std, "{x:.decimals$}")
                    };
                    assert_eq!(ours, std, "{x:e} (bits {:#x}) {fixed:?}", x.to_bits());
                }
            }
        }
    }

    /// Every table renderer writes a cell as [`Fixed`]'s `Display` writes
    /// it: the markdown, CSV and JSON paths over seeded `fixed_probe`
    /// values, at zero to four decimals, signed or not.
    #[test]
    fn cells_render_as_fixed_displays() {
        const VALUES: u64 = 50_000;
        let mut state = rvhpc_quickprop::base_seed() ^ 0xce11_5eed;
        let values: Vec<f64> = (0..VALUES).map(|i| fixed_probe(i, &mut state)).collect();
        for decimals in 0..=Fixed::MAX_DECIMALS {
            for plus in [false, true] {
                let fixed: Vec<Fixed> =
                    values.iter().map(|&x| Fixed { x, decimals, plus }).collect();
                let table = TableReport {
                    id: "Table X",
                    title: "t".into(),
                    headers: &["x"],
                    cells: fixed.iter().map(|&x| Cell::Fixed(x)).collect(),
                };
                let (markdown, csv) = (table.to_markdown(), table.to_csv());
                let json = Json::parse(&table.to_json()).expect("valid JSON");
                // Markdown: the caption, a blank line, the header and the
                // rule, then one `| cell |` line per row.
                let markdown = markdown.lines().skip(4).map(|line| {
                    line.strip_prefix("| ").and_then(|l| l.strip_suffix(" |")).expect(line)
                });
                let csv = csv.lines().skip(1);
                let json = json
                    .get("rows")
                    .and_then(Json::as_arr)
                    .expect("rows")
                    .iter()
                    .map(|row| row.get("x").and_then(Json::as_str).expect("a string cell"));
                let mut rows = 0;
                for (((x, markdown), csv), json) in fixed.iter().zip(markdown).zip(csv).zip(json) {
                    let display = x.to_string();
                    assert_eq!(markdown, display, "markdown {x:?}");
                    assert_eq!(csv, display, "CSV {x:?}");
                    assert_eq!(json, display, "JSON {x:?}");
                    rows += 1;
                }
                assert_eq!(rows, VALUES, "one line per cell in every rendering");
            }
        }
    }

    #[test]
    fn integer_cells_render_in_decimal() {
        for n in [0, 7, 10, 64, 1_000_000_007, usize::MAX] {
            assert_eq!(Cell::Int(n).to_string(), n.to_string());
        }
    }

    #[test]
    fn class_stat_aggregates() {
        let s = ClassStat::from_values(KernelClass::Stream, &[1.0, 3.0, -1.0]);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn kernels_are_grouped_by_class_in_class_order() {
        // `per_class` slices `KernelName::ALL` into one run per class.
        let mut runs: Vec<KernelClass> = KernelName::ALL.iter().map(|k| k.class()).collect();
        runs.dedup();
        assert_eq!(runs, KernelClass::ALL);
    }

    #[test]
    fn per_class_matches_a_class_filter_bit_for_bit() {
        let values = std::array::from_fn(|i| ((i * 37 % 11) as f64 - 5.0) / 3.0);
        let stats = ClassStat::per_class(&values);
        for (class, stat) in KernelClass::ALL.into_iter().zip(&stats) {
            let filtered: Vec<f64> = KernelName::ALL
                .iter()
                .zip(&values)
                .filter(|(k, _)| k.class() == class)
                .map(|(_, v)| *v)
                .collect();
            let expected = ClassStat::from_values(class, &filtered);
            assert_eq!(stat.class, class);
            assert_eq!(stat.mean.to_bits(), expected.mean.to_bits(), "{class}");
            assert_eq!(stat.min.to_bits(), expected.min.to_bits(), "{class}");
            assert_eq!(stat.max.to_bits(), expected.max.to_bits(), "{class}");
        }
    }

    #[test]
    fn markdown_has_all_classes() {
        let fig = FigureReport {
            id: "Figure X",
            title: "test",
            value_label: "times faster",
            series: vec![SeriesStat {
                label: "a",
                classes: KernelClass::ALL.map(|c| ClassStat {
                    class: c,
                    mean: 0.0,
                    min: -1.0,
                    max: 1.0,
                }),
            }],
        };
        let md = fig.to_markdown();
        for c in KernelClass::ALL {
            assert!(md.contains(c.label()), "{md}");
        }
    }

    #[test]
    fn ascii_chart_renders_all_series_and_classes() {
        // Stream's bar is positive, basic's negative, the rest zero.
        let mean = |class| match class {
            KernelClass::Stream => 2.0,
            KernelClass::Basic => -1.0,
            _ => 0.0,
        };
        let fig = FigureReport {
            id: "Figure X",
            title: "test",
            value_label: "times faster",
            series: vec![SeriesStat {
                label: "series-a",
                classes: KernelClass::ALL.map(|class| {
                    let mean = mean(class);
                    ClassStat { class, mean, min: mean - 1.0, max: mean + 1.0 }
                }),
            }],
        };
        let chart = fig.to_ascii_chart();
        assert!(chart.contains("series-a"));
        assert!(chart.contains("stream"));
        assert!(chart.contains("█"), "bars must render");
        // The negative bar sits left of the axis: its line has bars before '|'.
        let basic_line = chart.lines().find(|l| l.contains("basic")).unwrap();
        let axis = basic_line.find('|').unwrap();
        assert!(basic_line[..axis].contains('█'), "{basic_line}");
    }

    #[test]
    fn csv_row_counts() {
        let t = TableReport {
            id: "Table X",
            title: "t".into(),
            headers: &["a", "b"],
            cells: vec![Cell::Int(1), "2".into()],
        };
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }
}
