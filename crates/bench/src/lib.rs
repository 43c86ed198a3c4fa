//! # mana-bench — the paper's figures as one table
//!
//! [`FIGURES`] is the reproduction of the paper's evaluation: the §2.6
//! model check, Figs. 2–9 and the §3.2.2, §3.3 and §3.5 results. Each
//! [`Figure`] names the simulated jobs it reads, or the protocol
//! configurations it model-checks (figures that read the same jobs share
//! them), the paper's claims about it, the file that recorded each
//! claim's target, and a band or an ordering per claim. [`card`] runs the jobs
//! and renders the verdicts and the runs as the markdown card `manasim
//! reproduce` prints. The card holds simulated values only, so it is
//! byte-stable per seed: `REPRODUCTION.md` commits the [`Scale::Quick`]
//! card and `tests/reproduction.rs` regenerates it byte for byte.
//!
//! A claim outside its band is shown on the card as a deviation; the
//! card never adjusts a model to meet a target.
//!
//! One `cargo bench` target remains beside the card: `micro` (criterion:
//! host cost of MANA's hot structures).

#![warn(missing_docs)]

mod figures;

pub use figures::FIGURES;

use std::fmt::Write as _;

/// How large the sweeps run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// At most 64 ranks and few steps: the committed card.
    Quick,
    /// The paper's scale: up to 64 nodes × 32 ranks per node.
    Full,
}

/// What a claim's extracted values must satisfy.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// Every value lies in `lo..=hi`.
    Band(f64, f64),
    /// Each value is larger than the one before it.
    Rising,
    /// The repo states no single target; the row shows its values and
    /// names the open item that will choose one.
    Unresolved(&'static str),
}

/// Band `x ± 5 %`: the reading of a target the repo states as "~x".
const fn about(x: f64) -> Target {
    Target::Band(x * 0.95, x * 1.05)
}

/// One claim of a figure, checked against the figure's sweep.
struct Claim {
    /// The claim, in the words the repo records it in.
    claim: &'static str,
    /// The file that records the claim's target.
    source: &'static str,
    /// Unit of the extracted values.
    unit: &'static str,
    /// The labelled values the target applies to, in sweep order; none
    /// when the sweep has no run the claim speaks of at this scale.
    extract: fn(&Sweep) -> Vec<(String, f64)>,
    /// What the values must satisfy.
    target: Target,
}

/// Runs the jobs behind one or more figures at a scale. Figures that
/// read the same runs name the same `static`, and [`card`] runs and shows
/// it once.
struct Runs(fn(Scale) -> Sweep);

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// What `manasim reproduce --fig` selects: the figure's number, or
    /// the section of a result that has no figure.
    pub key: &'static str,
    /// Figure and section, as the card heads its rows.
    name: &'static str,
    /// The jobs the figure reads.
    runs: &'static Runs,
    /// What the paper claims about the figure.
    claims: &'static [Claim],
}

/// The runs behind one or more figures: what they measure, a label per
/// run and one number per column.
struct Sweep {
    title: &'static str,
    columns: Vec<(&'static str, usize)>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Sweep {
    /// An empty sweep of `title` whose columns are `(name, decimals
    /// shown)`.
    fn new(title: &'static str, columns: &[(&'static str, usize)]) -> Sweep {
        Sweep {
            title,
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Append one run.
    fn row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "one value per column");
        self.rows.push((label.into(), values));
    }

    /// Column `name` of every run whose label starts with `prefix`.
    fn col_of(&self, prefix: &str, name: &str) -> Vec<(String, f64)> {
        let i = self
            .columns
            .iter()
            .position(|(c, _)| *c == name)
            .unwrap_or_else(|| panic!("sweep has no column {name}"));
        self.rows
            .iter()
            .filter(|(label, _)| label.starts_with(prefix))
            .map(|(label, values)| (label.clone(), values[i]))
            .collect()
    }

    /// Column `name` of every run.
    fn col(&self, name: &str) -> Vec<(String, f64)> {
        self.col_of("", name)
    }

    /// Column `name` of the runs whose column `key` holds its largest
    /// value.
    fn col_at_max(&self, key: &str, name: &str) -> Vec<(String, f64)> {
        let keys = self.col(key);
        let max = keys
            .iter()
            .map(|(_, k)| *k)
            .fold(f64::NEG_INFINITY, f64::max);
        self.col(name)
            .into_iter()
            .zip(keys)
            .filter(|(_, (_, k))| *k == max)
            .map(|(v, _)| v)
            .collect()
    }

    fn table(&self) -> Table {
        let mut headers = vec!["run"];
        headers.extend(self.columns.iter().map(|(c, _)| *c));
        let mut t = Table::new(&headers);
        for (label, values) in &self.rows {
            let mut cells = vec![label.clone()];
            cells.extend(
                values
                    .iter()
                    .zip(&self.columns)
                    .map(|(v, (_, d))| format!("{v:.d$}")),
            );
            t.row(cells);
        }
        t
    }
}

/// A value as the card prints it: to three decimals, trailing zeros cut.
fn num(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn target_text(t: Target, unit: &str) -> String {
    match t {
        Target::Band(lo, hi) if lo == hi => format!("= {} {unit}", num(lo)),
        Target::Band(lo, hi) if hi == f64::INFINITY => format!("≥ {} {unit}", num(lo)),
        Target::Band(lo, hi) if lo == f64::NEG_INFINITY => format!("≤ {} {unit}", num(hi)),
        Target::Band(lo, hi) => format!("{}–{} {unit}", num(lo), num(hi)),
        Target::Rising => "rising".to_string(),
        Target::Unresolved(_) => "—".to_string(),
    }
}

fn listed(values: &[(String, f64)], unit: &str) -> String {
    let shown: Vec<String> = values
        .iter()
        .map(|(label, v)| format!("{label}: {} {unit}", num(*v)))
        .collect();
    shown.join("; ")
}

/// The measured column: every value when there are few, else the range.
fn measured(values: &[(String, f64)], unit: &str) -> String {
    if values.len() <= 3 {
        return listed(values, unit);
    }
    let lo = values.iter().map(|v| v.1).fold(f64::INFINITY, f64::min);
    let hi = values.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
    let range = if lo == hi {
        num(lo)
    } else {
        format!("{}–{}", num(lo), num(hi))
    };
    format!("{range} {unit} over {} runs", values.len())
}

fn verdict(t: Target, values: &[(String, f64)], unit: &str) -> String {
    if values.is_empty() {
        return "not at this scale".to_string();
    }
    match t {
        Target::Band(lo, hi) => {
            let out: Vec<(String, f64)> = values
                .iter()
                .filter(|(_, v)| *v < lo || *v > hi)
                .cloned()
                .collect();
            if out.is_empty() {
                "in band".to_string()
            } else {
                format!("**out of band**: {}", listed(&out, unit))
            }
        }
        Target::Rising if values.windows(2).all(|w| w[0].1 < w[1].1) => "in order".to_string(),
        Target::Rising => "**out of order**".to_string(),
        Target::Unresolved(why) => format!("unresolved: {why}"),
    }
}

/// `f` over `items`, in order. At the quick scale each item runs on a
/// thread of its own, so a debug build prints the card in seconds; at the
/// full scale they run one after the other, as each may need gigabytes.
fn each<T: Sync, R: Send>(scale: Scale, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    match scale {
        Scale::Quick => std::thread::scope(|sc| {
            let threads: Vec<_> = items.iter().map(|x| sc.spawn(|| f(x))).collect();
            let joined = threads.into_iter().map(|t| t.join());
            joined.collect::<Result<_, _>>().expect("a run panicked")
        }),
        Scale::Full => items.iter().map(f).collect(),
    }
}

/// Run `figs` at `scale` and render the reproduction card: one row per
/// claim, then each set of runs.
pub fn card(figs: &[&Figure], scale: Scale) -> String {
    let mut runs: Vec<&'static Runs> = Vec::new();
    for f in figs {
        if !runs.iter().any(|r| std::ptr::eq(*r, f.runs)) {
            runs.push(f.runs);
        }
    }
    let swept = each(scale, &runs, |r| (r.0)(scale));
    let sweep_of = |f: &Figure| {
        let i = runs.iter().position(|r| std::ptr::eq(*r, f.runs));
        &swept[i.expect("every figure's runs were swept")]
    };
    let mut claims = Table::new(&["figure", "claim", "target", "source", "measured", "verdict"]);
    for f in figs {
        for c in f.claims {
            let values = (c.extract)(sweep_of(f));
            claims.row(vec![
                f.name.to_string(),
                c.claim.to_string(),
                target_text(c.target, c.unit),
                c.source.to_string(),
                measured(&values, c.unit),
                verdict(c.target, &values, c.unit),
            ]);
        }
    }
    let mut out = String::new();
    let (scale_name, scale_note) = match scale {
        Scale::Quick => ("quick", "at most 64 ranks and few steps per run"),
        Scale::Full => ("full", "the paper's scale, up to 2048 ranks"),
    };
    let _ = write!(
        out,
        "# Reproduction card ({scale_name} scale)\n\n\
         Printed by `manasim reproduce` ({scale_note}; fixed seeds) from simulated \
         values only. A source named by a bare `<target>.rs` is the `cargo bench` \
         target that printed the result before this card replaced it; its banner, \
         footer or assertion recorded the target.\n\n{}",
        claims.render()
    );
    for (r, s) in runs.iter().zip(&swept) {
        let names: Vec<&str> = figs
            .iter()
            .filter(|f| std::ptr::eq(f.runs, *r))
            .map(|f| f.name)
            .collect();
        let table = s.table().render();
        let _ = write!(out, "\n## {} — {}\n\n{table}", names.join(", "), s.title);
    }
    out
}

/// Markdown table, aligned for reading in a terminal.
struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// The table as markdown, every column padded to its widest cell.
    fn render(&self) -> String {
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| width(h)).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(width(c));
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(s, " {c}{} |", " ".repeat(w - width(c)));
            }
            s + "\n"
        };
        let mut out = line(&self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out += &line(&rule);
        for r in &self.rows {
            out += &line(r);
        }
        out
    }
}
