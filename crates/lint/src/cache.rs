//! The incremental lint cache: per-file rule output keyed by content
//! hash, persisted under `target/lint/`.
//!
//! Linting is per-file pure — a file's findings, metric registrations,
//! pragmas, and symbol facts depend only on its bytes, its layout class,
//! its surface classification, and the rule set. So the cache key is
//! exactly those four things: an FNV-1a hash of the file's text plus the
//! class/surface labels, under a `RULESET_VERSION` header that any rule
//! change must bump (reviewers: bump it whenever a rule's behaviour
//! changes, or stale findings will survive a warm run). Cross-file work
//! (the FJ04 catalogue cross-check, suppression application, the surface
//! map assembly) is recomputed from cached per-file facts on every run,
//! which is what makes a warm run byte-identical to a cold one — the CI
//! gate in `ci.sh` diffs the two findings.json files to prove it.
//!
//! The format is a line-oriented text file (not JSON) so the zero-dep
//! driver can parse its own output without a parser dependency. Any
//! malformed or version-skewed content degrades to a cache miss, never
//! an error: the cache can only ever cost time, not correctness.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::findings::Finding;
use crate::rules::fj04::Registration;
use crate::suppress::Pragma;

/// Bump on any change to rules, the lexer, or the symbol pass.
pub const RULESET_VERSION: u32 = 3;

/// Everything the per-file stage produces; the unit of caching.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileOutcome {
    /// Raw per-file findings (before suppression), including FJ00.
    pub findings: Vec<Finding>,
    /// FJ04 metric/span registrations.
    pub registrations: Vec<Registration>,
    /// Parsed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// `mod` declarations parsed from the code mask (symbol pass input).
    pub mod_decls: Vec<String>,
    /// Whether the file references the `fj-par` shard seam.
    pub shard_adjacent: bool,
}

/// A loaded cache: rel path → (key, outcome).
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileOutcome)>,
}

impl Cache {
    /// Loads a cache file; unreadable or version-skewed content yields
    /// an empty cache (a cold run), never an error.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        parse(&text).unwrap_or_default()
    }

    /// Looks up the outcome cached for `rel` under `key`.
    pub fn get(&self, rel: &str, key: u64) -> Option<&FileOutcome> {
        self.entries
            .get(rel)
            .filter(|(k, _)| *k == key)
            .map(|(_, o)| o)
    }

    /// Replaces the entry for `rel`.
    pub fn put(&mut self, rel: String, key: u64, outcome: FileOutcome) {
        self.entries.insert(rel, (key, outcome));
    }

    /// Writes the cache file (atomically via tmp + rename, so a killed
    /// lint run cannot leave a torn cache behind).
    pub fn store(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.render())?;
        fs::rename(&tmp, path)
    }

    fn render(&self) -> String {
        let mut out = format!("fj-lint-cache v{RULESET_VERSION}\n");
        for (rel, (key, o)) in &self.entries {
            out.push_str(&format!("= {key:016x} {}\n", esc(rel)));
            if o.shard_adjacent {
                out.push_str("s\n");
            }
            for d in &o.mod_decls {
                out.push_str(&format!("m {}\n", esc(d)));
            }
            for f in &o.findings {
                out.push_str(&format!(
                    "f {} {} {} {}\n",
                    f.rule,
                    f.line,
                    f.col,
                    esc(&f.message)
                ));
            }
            for r in &o.registrations {
                out.push_str(&format!("r {} {} {}\n", r.kind, r.line, esc(&r.name)));
            }
            for p in &o.pragmas {
                out.push_str(&format!(
                    "p {} {} {} {} {}\n",
                    p.line,
                    p.end_line,
                    u8::from(p.file_scope),
                    u8::from(p.justified),
                    p.rules.join(",")
                ));
            }
        }
        out
    }
}

/// FNV-1a 64-bit over the file text plus the class/surface labels —
/// the per-file cache key.
pub fn file_key(text: &str, class_label: &str, surface_label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [text, "\0", class_label, "\0", surface_label] {
        for b in chunk.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn parse(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    if lines.next()? != format!("fj-lint-cache v{RULESET_VERSION}") {
        return None;
    }
    let mut cache = Cache::default();
    let mut current: Option<(String, u64, FileOutcome)> = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "=" => {
                if let Some((rel, key, outcome)) = current.take() {
                    cache.put(rel, key, outcome);
                }
                let (key_hex, rel) = rest.split_once(' ')?;
                let key = u64::from_str_radix(key_hex, 16).ok()?;
                current = Some((unesc(rel), key, FileOutcome::default()));
            }
            "s" => current.as_mut()?.2.shard_adjacent = true,
            "m" => current.as_mut()?.2.mod_decls.push(unesc(rest)),
            "f" => {
                let mut parts = rest.splitn(4, ' ');
                let rule = static_rule(parts.next()?)?;
                let line_no = parts.next()?.parse().ok()?;
                let col = parts.next()?.parse().ok()?;
                let message = unesc(parts.next()?);
                let (rel, _, outcome) = current.as_mut()?;
                outcome.findings.push(Finding {
                    rule,
                    file: rel.clone(),
                    line: line_no,
                    col,
                    message,
                });
            }
            "r" => {
                let mut parts = rest.splitn(3, ' ');
                let kind = static_kind(parts.next()?)?;
                let line_no = parts.next()?.parse().ok()?;
                let name = unesc(parts.next()?);
                let (rel, _, outcome) = current.as_mut()?;
                outcome.registrations.push(Registration {
                    name,
                    kind,
                    file: rel.clone(),
                    line: line_no,
                });
            }
            "p" => {
                let mut parts = rest.splitn(5, ' ');
                let line_no = parts.next()?.parse().ok()?;
                let end_line = parts.next()?.parse().ok()?;
                let file_scope = parts.next()? == "1";
                let justified = parts.next()? == "1";
                let rules = parts
                    .next()
                    .map(|r| {
                        r.split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default();
                current.as_mut()?.2.pragmas.push(Pragma {
                    rules,
                    line: line_no,
                    end_line,
                    file_scope,
                    justified,
                });
            }
            _ => return None,
        }
    }
    if let Some((rel, key, outcome)) = current.take() {
        cache.put(rel, key, outcome);
    }
    Some(cache)
}

/// Findings carry `&'static str` rule ids; map a parsed id back onto the
/// canonical static. Unknown ids poison the entry (cache miss).
fn static_rule(id: &str) -> Option<&'static str> {
    if id == "FJ00" {
        return Some("FJ00");
    }
    crate::rules::catalogue()
        .into_iter()
        .map(|r| r.id)
        .find(|r| *r == id)
}

fn static_kind(kind: &str) -> Option<&'static str> {
    ["counter", "gauge", "histogram", "span", "alert"]
        .into_iter()
        .find(|k| *k == kind)
}

/// One-line escaping: the format is line- and space-delimited, so `\`,
/// newlines, and (in the final field only) nothing else need quoting.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> FileOutcome {
        FileOutcome {
            findings: vec![Finding {
                rule: "FJ02",
                file: "crates/x/src/lib.rs".to_owned(),
                line: 3,
                col: 7,
                message: "an `unwrap` with\na newline and a \\ slash".to_owned(),
            }],
            registrations: vec![Registration {
                name: "polls_total".to_owned(),
                kind: "counter",
                file: "crates/x/src/lib.rs".to_owned(),
                line: 9,
            }],
            pragmas: vec![Pragma {
                rules: vec!["FJ01".to_owned(), "FJ05".to_owned()],
                line: 4,
                end_line: 5,
                file_scope: false,
                justified: true,
            }],
            mod_decls: vec!["clock".to_owned()],
            shard_adjacent: true,
        }
    }

    #[test]
    fn round_trips_through_the_text_format() {
        let mut cache = Cache::default();
        cache.put("crates/x/src/lib.rs".to_owned(), 0xdead_beef, outcome());
        let parsed = parse(&cache.render()).expect("parses");
        let got = parsed.get("crates/x/src/lib.rs", 0xdead_beef).expect("hit");
        assert_eq!(*got, outcome());
    }

    #[test]
    fn wrong_key_or_version_misses() {
        let mut cache = Cache::default();
        cache.put("a.rs".to_owned(), 1, FileOutcome::default());
        assert!(cache.get("a.rs", 2).is_none());
        assert!(cache.get("b.rs", 1).is_none());
        let skewed = cache.render().replace(
            &format!("v{RULESET_VERSION}"),
            &format!("v{}", RULESET_VERSION + 1),
        );
        assert!(parse(&skewed).is_none(), "version skew → cold run");
    }

    #[test]
    fn corrupt_content_degrades_to_cold() {
        assert!(parse("garbage\n").is_none());
        let mut cache = Cache::default();
        cache.put("a.rs".to_owned(), 1, outcome());
        let torn = &cache.render()[..cache.render().len() / 2];
        // A torn tail either parses partially or not at all; it must
        // never panic.
        let _ = parse(torn);
    }

    #[test]
    fn file_key_separates_text_class_and_surface() {
        let a = file_key("x", "lib", "deterministic");
        assert_ne!(a, file_key("y", "lib", "deterministic"));
        assert_ne!(a, file_key("x", "bin", "deterministic"));
        assert_ne!(a, file_key("x", "lib", "off"));
        assert_eq!(a, file_key("x", "lib", "deterministic"));
    }
}
