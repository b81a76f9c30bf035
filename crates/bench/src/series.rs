//! Figure/series data model for the reproduction harness: what the paper
//! plots, we print as aligned tables and persist as JSON under `results/`.
//!
//! JSON (de)serialization is hand-rolled so the harness builds on
//! network-isolated hosts with no external crates.

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

    /// Parse a figure back from JSON produced by [`Figure::to_json`].
    pub fn from_json(text: &str) -> Result<Figure, String> {
        let v = JsonValue::parse(text)?;
        let obj = v.as_obj()?;
        let get = |k: &str| -> Result<&JsonValue, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key `{k}`"))
        };
        let mut fig = Figure::new(
            get("id")?.as_str()?,
            get("title")?.as_str()?,
            get("x_label")?.as_str()?,
            get("y_label")?.as_str()?,
        );
        for sv in get("series")?.as_arr()? {
            let sobj = sv.as_obj()?;
            let name = sobj
                .iter()
                .find(|(k, _)| k == "name")
                .ok_or("series missing `name`")?
                .1
                .as_str()?;
            let mut s = Series::new(name);
            if let Some((_, pts)) = sobj.iter().find(|(k, _)| k == "points") {
                for pv in pts.as_arr()? {
                    let pobj = pv.as_obj()?;
                    let coord = |k: &str| -> Result<f64, String> {
                        pobj.iter()
                            .find(|(key, _)| key == k)
                            .ok_or_else(|| format!("point missing `{k}`"))?
                            .1
                            .as_num()
                    };
                    s.push(coord("x")?, coord("y")?);
                }
            }
            fig.series.push(s);
        }
        for nv in get("notes")?.as_arr()? {
            fig.note(nv.as_str()?);
        }
        Ok(fig)
    }

    /// Persist to `results/<id>.json`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }

    /// Ratio of the last y to the first y of the named series (for the
    /// EXPERIMENTS.md shape checks and unit tests).
    pub fn series_ratio(&self, name: &str) -> Option<f64> {
        let s = self.series.iter().find(|s| s.name == name)?;
        let first = s.points.first()?.y;
        let last = s.points.last()?.y;
        if first == 0.0 {
            None
        } else {
            Some(last / first)
        }
    }

    /// y value of `series` at x (exact match).
    pub fn value_at(&self, name: &str, x: f64) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == name)?
            .points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
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

/// Format a finite f64 as a JSON number (NaN/inf become null, which
/// `from_json` reads back as 0).
fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    // `{}` on f64 always includes enough digits to round-trip.
    let s = format!("{x}");
    s
}

/// A minimal JSON value — just enough to round-trip what `to_json` emits.
enum JsonValue {
    Null,
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0;
        let v = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at offset {pos}"));
        }
        Ok(v)
    }

    fn as_obj(&self) -> Result<&[(String, JsonValue)], String> {
        match self {
            JsonValue::Obj(m) => Ok(m),
            _ => Err("expected object".into()),
        }
    }

    fn as_arr(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(a) => Ok(a),
            _ => Err("expected array".into()),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err("expected string".into()),
        }
    }

    fn as_num(&self) -> Result<f64, String> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            JsonValue::Null => Ok(0.0),
            _ => Err("expected number".into()),
        }
    }
}

fn skip_ws(s: &[char], pos: &mut usize) {
    while *pos < s.len() && s[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(s: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    skip_ws(s, pos);
    if s.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(s: &[char], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(s, pos);
    match s.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(s, pos);
                let key = parse_string(s, pos)?;
                expect(s, pos, ':')?;
                let val = parse_value(s, pos)?;
                fields.push((key, val));
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some('"') => Ok(JsonValue::Str(parse_string(s, pos)?)),
        Some('n') => {
            if s[*pos..].starts_with(&['n', 'u', 'l', 'l']) {
                *pos += 4;
                Ok(JsonValue::Null)
            } else {
                Err(format!("bad literal at offset {pos}", pos = *pos))
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while *pos < s.len() && matches!(s[*pos], '-' | '+' | '.' | 'e' | 'E' | '0'..='9') {
                *pos += 1;
            }
            let text: String = s[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
        _ => Err(format!("unexpected character at offset {pos}", pos = *pos)),
    }
}

fn parse_string(s: &[char], pos: &mut usize) -> Result<String, String> {
    if s.get(*pos) != Some(&'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = s.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = s.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        if *pos + 4 > s.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex: String = s[*pos..*pos + 4].iter().collect();
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|e| format!("bad \\u escape `{hex}`: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{other}`")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
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
    fn ratios_and_lookup() {
        let mut fig = Figure::new("f", "t", "x", "y");
        let mut s = Series::new("S");
        s.push(1.0, 5.0);
        s.push(4.0, 20.0);
        fig.series.push(s);
        assert_eq!(fig.series_ratio("S"), Some(4.0));
        assert_eq!(fig.value_at("S", 4.0), Some(20.0));
        assert_eq!(fig.value_at("S", 3.0), None);
    }

    #[test]
    fn json_roundtrip() {
        let mut fig = Figure::new("f", "t \"quoted\"\n", "x", "y");
        let mut s = Series::new("S");
        s.push(1.0, 5.0);
        s.push(0.5, -3.25e-4);
        fig.series.push(s);
        fig.note("scaled down");
        let j = fig.to_json();
        let back = Figure::from_json(&j).unwrap();
        assert_eq!(back.id, "f");
        assert_eq!(back.title, "t \"quoted\"\n");
        assert_eq!(back.notes.len(), 1);
        assert_eq!(back.series.len(), 1);
        assert_eq!(back.series[0].points.len(), 2);
        assert_eq!(back.series[0].points[1].y, -3.25e-4);
    }
}
