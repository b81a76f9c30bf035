//! Figure/series data model for the reproduction harness: what the paper
//! plots, we print as aligned tables and persist as JSON under `results/`.
//!
//! The JSON is written by hand (nothing reads it back), so the harness
//! builds on network-isolated hosts with no external crates.

use std::fmt::Write as _;
use std::path::Path;

/// One plotted point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

/// One plotted series (a line in the paper's figure).
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone)]
pub struct Figure {
    /// e.g. "fig4", "tab3".
    pub id: String,
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
    /// Workload scaling and substitutions relative to the paper.
    pub notes: Vec<String>,
}

impl Figure {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Render as an aligned text table (x down the rows, series across).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        // Collect the x values of the longest series.
        let xs: Vec<f64> = self
            .series
            .iter()
            .max_by_key(|s| s.points.len())
            .map(|s| s.points.iter().map(|p| p.x).collect())
            .unwrap_or_default();
        // One width for every series column: the historical 20, or the
        // longest name plus a separating space.
        let longest = self.series.iter().map(|s| s.name.chars().count());
        let w = longest.max().map_or(20, |n| (n + 1).max(20));
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>w$}", s.name);
        }
        let _ = writeln!(out);
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>14}");
            for s in &self.series {
                match s
                    .points
                    .iter()
                    .find(|p| (p.x - x).abs() < 1e-9)
                    .or(s.points.get(i))
                {
                    Some(p) => {
                        let _ = write!(out, "{:>w$.3}", p.y);
                    }
                    None => {
                        let _ = write!(out, "{:>w$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "    (y: {})", self.y_label);
        for n in &self.notes {
            let _ = writeln!(out, "    note: {n}");
        }
        out
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_str(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"x_label\": {},", json_str(&self.x_label));
        let _ = writeln!(out, "  \"y_label\": {},", json_str(&self.y_label));
        out.push_str("  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_str(&s.name));
            out.push_str("      \"points\": [");
            for (j, p) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n        {{ \"x\": {}, \"y\": {} }}",
                    json_num(p.x),
                    json_num(p.y)
                );
            }
            if !s.points.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.series.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Persist to `results/<id>.json`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
}

/// Escape and quote a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a finite f64 as a JSON number (NaN/inf become null).
fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    // `{}` on f64 always includes enough digits to round-trip.
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_series() {
        let mut fig = Figure::new("figX", "test", "ranks", "cycles");
        let mut a = Series::new("A");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("B");
        b.push(1.0, 11.0);
        b.push(2.0, 21.0);
        // A name wider than the historical 20-column field.
        let mut c = Series::new("a-series-name-of-thirty-chars!");
        c.push(1.0, 12.0);
        fig.series.push(a);
        fig.series.push(b);
        fig.series.push(c);
        let r = fig.render();
        assert!(r.contains("figX"));
        assert!(r.contains("21.000"));
        // Adjacent headers stay separated, and rows line up under them.
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["ranks", "A", "B", "a-series-name-of-thirty-chars!"]
        );
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(lines[3].split_whitespace().last(), Some("-"));
    }

    #[test]
    fn json_text_is_pinned() {
        let mut fig = Figure::new("f", "t \"quoted\"\n\\ \u{1}", "x", "y");
        let mut s = Series::new("S\ttab");
        s.push(1.0, 5.0);
        s.push(0.5, -3.25e-4);
        s.push(f64::NAN, f64::INFINITY);
        fig.series.push(s);
        fig.series.push(Series::new("empty"));
        fig.note("scaled down");
        fig.note("second");
        let want = r#"{
  "id": "f",
  "title": "t \"quoted\"\n\\ \u0001",
  "x_label": "x",
  "y_label": "y",
  "series": [
    {
      "name": "S\ttab",
      "points": [
        { "x": 1, "y": 5 },
        { "x": 0.5, "y": -0.000325 },
        { "x": null, "y": null }
      ]
    },
    {
      "name": "empty",
      "points": []
    }
  ],
  "notes": ["scaled down", "second"]
}
"#;
        assert_eq!(fig.to_json(), want);
        let empty = Figure::new("e", "", "", "");
        let want = "{\n  \"id\": \"e\",\n  \"title\": \"\",\n  \"x_label\": \"\",\n  \
                    \"y_label\": \"\",\n  \"series\": [],\n  \"notes\": []\n}\n";
        assert_eq!(empty.to_json(), want);
    }
}
