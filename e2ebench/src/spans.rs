//! The benchmark's own spans: wall-clock intervals around the public calls
//! it drives, kept in memory and written out as JSONL when a traced run
//! ends. They are deliberately separate from `bbgnn_obs`, whose names are
//! checked against the DESIGN.md §8 taxonomy.

use bbgnn::scenario::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Rec {
    /// Process-unique id (≥ 1).
    pub id: u64,
    /// Enclosing span id, `0` for a root.
    pub parent: u64,
    /// What was timed, e.g. `pass`, `cell/PEEGA`, `job/run`.
    pub name: String,
    /// The cell or job the span belongs to (may be empty).
    pub tag: String,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
}

/// A span that is still open; hand it back to [`Recorder::end`].
#[derive(Debug)]
pub struct Open {
    /// Id to pass as `parent` to child spans.
    pub id: u64,
    parent: u64,
    name: String,
    tag: String,
    start: Instant,
}

/// Times spans always; keeps them only when enabled (the traced run).
pub struct Recorder {
    origin: Instant,
    keep: bool,
    next: AtomicU64,
    recs: Mutex<Vec<Rec>>,
}

impl Recorder {
    /// A recorder that keeps its spans iff `keep`.
    pub fn new(keep: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            keep,
            next: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent` (`0` for a root).
    pub fn open(&self, name: &str, parent: u64, tag: &str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            tag: tag.to_string(),
            start: Instant::now(),
        }
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn end(&self, span: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(span.start).as_secs_f64();
        if self.keep {
            let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
            let rec = Rec {
                id: span.id,
                parent: span.parent,
                name: span.name,
                tag: span.tag,
                start_us: us(span.start),
                end_us: us(end),
            };
            if let Ok(mut recs) = self.recs.lock() {
                recs.push(rec);
            }
        }
        secs
    }

    /// Times `f` as one span and returns its result with the seconds taken.
    pub fn time<T>(&self, name: &str, parent: u64, tag: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, parent, tag);
        let out = f();
        (out, self.end(span))
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let recs = self.recs.lock().map(|r| r.clone()).unwrap_or_default();
        let mut text = String::new();
        for r in &recs {
            let obj = Json::object([
                ("id".to_string(), Json::number_u64(r.id)),
                ("parent".to_string(), Json::number_u64(r.parent)),
                ("name".to_string(), Json::string(&r.name)),
                ("tag".to_string(), Json::string(&r.tag)),
                ("start_us".to_string(), Json::number_f64(r.start_us)),
                ("end_us".to_string(), Json::number_f64(r.end_us)),
            ]);
            text.push_str(&obj.to_compact());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Parses a span file written by [`Recorder::write_jsonl`].
pub fn read_jsonl(text: &str) -> Result<Vec<Rec>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("span line {}: {e}", i + 1))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| format!("span line {}: not an object", i + 1))?;
        let num = |k: &str| obj.get(k).and_then(Json::as_f64);
        let text = |k: &str| obj.get(k).and_then(Json::as_str).map(str::to_string);
        let rec = (|| {
            Some(Rec {
                id: obj.get("id")?.as_u64()?,
                parent: obj.get("parent")?.as_u64()?,
                name: text("name")?,
                tag: text("tag")?,
                start_us: num("start_us")?,
                end_us: num("end_us")?,
            })
        })()
        .ok_or_else(|| format!("span line {}: missing or malformed field", i + 1))?;
        if rec.end_us < rec.start_us {
            return Err(format!("span line {}: ends before it starts", i + 1));
        }
        out.push(rec);
    }
    Ok(out)
}

/// Total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStat {
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by direct children, seconds.
    pub self_s: f64,
}

/// Aggregates spans by name. Self time is a span's duration minus the
/// durations of its direct children.
pub fn by_name(recs: &[Rec]) -> BTreeMap<String, NameStat> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.parent != 0) {
        *child_us.entry(r.parent).or_insert(0.0) += r.end_us - r.start_us;
    }
    let mut out: BTreeMap<String, NameStat> = BTreeMap::new();
    for r in recs {
        let dur = r.end_us - r.start_us;
        let kids = child_us.get(&r.id).copied().unwrap_or(0.0);
        let s = out.entry(r.name.clone()).or_default();
        s.count += 1;
        s.total_s += dur / 1e6;
        s.self_s += (dur - kids).max(0.0) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = |id, parent, name: &str, s, e| Rec {
            id,
            parent,
            name: name.to_string(),
            tag: String::new(),
            start_us: s,
            end_us: e,
        };
        let recs = vec![
            rec(2, 1, "cell", 0.0, 400_000.0),
            rec(3, 1, "cell", 400_000.0, 900_000.0),
            rec(1, 0, "pass", 0.0, 1_000_000.0),
        ];
        let stats = by_name(&recs);
        assert_eq!(stats["pass"].count, 1);
        assert!((stats["pass"].total_s - 1.0).abs() < 1e-12);
        assert!((stats["pass"].self_s - 0.1).abs() < 1e-12);
        assert!((stats["cell"].total_s - 0.9).abs() < 1e-12);
        assert!((stats["cell"].self_s - 0.9).abs() < 1e-12);
    }

    #[test]
    fn span_file_round_trips() {
        let rec = Recorder::new(true);
        let root = rec.open("pass", 0, "");
        let ((), _) = rec.time("cell/PGD", root.id, "cora/PGD", || ());
        let secs = rec.end(root);
        assert!(secs >= 0.0);
        let dir = std::env::temp_dir().join(format!("e2ebench-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let back = read_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "cell/PGD");
        assert_eq!(back[0].tag, "cora/PGD");
        assert_eq!(back[0].parent, back[1].id);
        assert!(read_jsonl("{\"id\":1}").is_err());
        assert!(Recorder::new(false).time("x", 0, "", || 1).0 == 1);
    }
}
