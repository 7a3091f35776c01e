//! Report structures for figures and tables, with markdown/CSV/JSON
//! rendering.

use rvhpc_kernels::{KernelClass, KernelName};
use rvhpc_trace::json::JsonWriter;
use std::fmt;
use std::fmt::Write as _;

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
        let mut put = |byte: u8| {
            at -= 1;
            buf[at] = byte;
        };
        for _ in 0..self.decimals {
            put(b'0' + (n % 10) as u8);
            n /= 10;
        }
        if self.decimals > 0 {
            put(b'.');
        }
        loop {
            put(b'0' + (n % 10) as u8);
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if self.x.is_sign_negative() {
            put(b'-');
        } else if self.plus {
            put(b'+');
        }
        std::str::from_utf8(&buf[at..]).ok()
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

/// Mean + whisker statistics for one benchmark class (one bar of a paper
/// figure).
#[derive(Debug, Clone)]
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
    /// values given in `KernelName::ALL` order.
    ///
    /// `KernelName::ALL` lists the kernels grouped by class in
    /// `KernelClass::ALL` order, so each class is one contiguous run of
    /// `values`, and each mean sums its run in `KernelName::ALL` order,
    /// exactly as a per-class filter of the suite would.
    pub fn per_class(values: &[f64]) -> Vec<ClassStat> {
        assert_eq!(values.len(), KernelName::ALL.len(), "one value per kernel");
        let mut start = 0;
        let stats = KernelClass::ALL
            .into_iter()
            .map(|class| {
                let len =
                    KernelName::ALL[start..].iter().take_while(|k| k.class() == class).count();
                let stat = ClassStat::from_values(class, &values[start..start + len]);
                start += len;
                stat
            })
            .collect();
        debug_assert_eq!(start, values.len(), "KernelName::ALL must be grouped by class");
        stats
    }
}

/// One plotted series (one machine/configuration across the six classes).
#[derive(Debug, Clone)]
pub struct SeriesStat {
    /// Legend label.
    pub label: String,
    /// One bar per class.
    pub classes: Vec<ClassStat>,
}

impl SeriesStat {
    /// A series over per-kernel values in `KernelName::ALL` order.
    pub fn from_kernel_values(label: impl Into<String>, values: &[f64]) -> SeriesStat {
        SeriesStat { label: label.into(), classes: ClassStat::per_class(values) }
    }

    /// The bar for a class.
    pub fn class(&self, class: KernelClass) -> Option<&ClassStat> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Mean across all classes (the "on average" numbers the paper quotes).
    pub fn overall_mean(&self) -> f64 {
        crate::suite::class_mean(&self.classes.iter().map(|c| c.mean).collect::<Vec<_>>())
    }
}

/// A figure: several series over the six classes.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. "Figure 1".
    pub id: String,
    /// Caption.
    pub title: String,
    /// Value axis label.
    pub value_label: String,
    /// The series.
    pub series: Vec<SeriesStat>,
}

impl FigureReport {
    /// Render as a markdown table (classes × series, `mean [min, max]`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out, "*{}*", self.value_label);
        let _ = write!(out, "\n| class |");
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = write!(out, "\n|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for class in KernelClass::ALL {
            let _ = write!(out, "| {class} |");
            for s in &self.series {
                match s.class(class) {
                    Some(c) => {
                        let [mean, min, max] = [c.mean, c.min, c.max].map(|v| Fixed::signed(v, 2));
                        let _ = write!(out, " {mean} [{min}, {max}] |");
                    }
                    None => {
                        let _ = write!(out, " – |");
                    }
                }
            }
            let _ = writeln!(out);
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
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "({}; axis spans ±{})\n", self.value_label, Fixed::new(scale, 2));
        for s in &self.series {
            let _ = writeln!(out, "{}", s.label);
            for c in &s.classes {
                let n = ((c.mean.abs() / scale) * HALF as f64).round() as usize;
                let n = n.min(HALF);
                let (neg, pos) = if c.mean >= 0.0 {
                    (" ".repeat(HALF), format!("{}{}", "█".repeat(n), " ".repeat(HALF - n)))
                } else {
                    (format!("{}{}", " ".repeat(HALF - n), "█".repeat(n)), " ".repeat(HALF))
                };
                let [mean, min, max] = [c.mean, c.min, c.max].map(|v| Fixed::signed(v, 2));
                let _ =
                    writeln!(out, "  {:<10} {neg}|{pos} {mean} [{min}, {max}]", c.class.label());
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (`series,class,mean,min,max`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,class,mean,min,max\n");
        for s in &self.series {
            for c in &s.classes {
                let [mean, min, max] = [c.mean, c.min, c.max].map(|v| Fixed::new(v, 4));
                let _ = writeln!(out, "{},{},{mean},{min},{max}", s.label, c.class);
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
        w.key("id").string(&self.id);
        w.key("title").string(&self.title);
        w.key("value_label").string(&self.value_label);
        w.key("series").open_array();
        for s in &self.series {
            w.open_object();
            w.key("label").string(&s.label);
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

/// A generic table: header row plus string rows (used for Tables 1–4).
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table identifier, e.g. "Table 1".
    pub id: String,
    /// Caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = write!(out, "\n|");
        for h in &self.headers {
            let _ = write!(out, " {h} |");
        }
        let _ = write!(out, "\n|");
        for _ in &self.headers {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "|");
            for cell in row {
                let _ = write!(out, " {cell} |");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Render as pretty-printed JSON (rows as header-keyed objects).
    pub fn to_json(&self) -> String {
        // Reserve the whole document: every row repeats the headers as keys,
        // and a header or cell line adds under 16 bytes of quotes,
        // separators and indentation to its text.
        let text = |cells: &[String]| cells.iter().map(|c| c.len() + 8).sum::<usize>();
        let header_text = text(&self.headers);
        let cells: usize = self.rows.iter().map(|row| 16 + header_text + text(row)).sum();
        let mut w = JsonWriter::pretty(256 + 2 * header_text + cells);
        w.open_object();
        w.key("id").string(&self.id);
        w.key("title").string(&self.title);
        w.key("headers").open_array();
        for h in &self.headers {
            w.string(h);
        }
        w.close_array();
        w.key("rows").open_array();
        for row in &self.rows {
            w.open_object();
            for (h, cell) in self.headers.iter().zip(row) {
                w.key(h).string(cell);
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
        let values: Vec<f64> =
            (0..KernelName::ALL.len()).map(|i| ((i * 37 % 11) as f64 - 5.0) / 3.0).collect();
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
            id: "Figure X".into(),
            title: "test".into(),
            value_label: "times faster".into(),
            series: vec![SeriesStat {
                label: "a".into(),
                classes: KernelClass::ALL
                    .into_iter()
                    .map(|c| ClassStat { class: c, mean: 0.0, min: -1.0, max: 1.0 })
                    .collect(),
            }],
        };
        let md = fig.to_markdown();
        for c in KernelClass::ALL {
            assert!(md.contains(c.label()), "{md}");
        }
    }

    #[test]
    fn ascii_chart_renders_all_series_and_classes() {
        let fig = FigureReport {
            id: "Figure X".into(),
            title: "test".into(),
            value_label: "times faster".into(),
            series: vec![SeriesStat {
                label: "series-a".into(),
                classes: vec![
                    ClassStat { class: KernelClass::Stream, mean: 2.0, min: 1.0, max: 3.0 },
                    ClassStat { class: KernelClass::Basic, mean: -1.0, min: -2.0, max: 0.0 },
                ],
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
            id: "Table X".into(),
            title: "t".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        assert_eq!(t.to_csv().lines().count(), 2);
    }
}
