//! `fj-lint` — a domain-aware static-analysis pass for this workspace.
//!
//! Clippy checks Rust; `fj-lint` checks *this reproduction's* invariants,
//! the ones the compiler cannot see:
//!
//! * **FJ01 determinism** — sim-visible behaviour is a function of seeds
//!   and the sim clock, never the wall clock;
//! * **FJ02 panic-freedom** — the measurement plane degrades, it does not
//!   crash;
//! * **FJ03 dimensional safety** — power math crosses public seams as
//!   `fj-units` newtypes, not bare `f64`s;
//! * **FJ04 telemetry contract** — metric names follow the convention and
//!   match DESIGN.md's catalogue in both directions;
//! * **FJ05 swallowed errors** — no silently discarded I/O `Result`s;
//! * **FJ06 lock discipline** — no guard held across a telemetry
//!   re-entry point;
//! * **FJ07 unordered iteration** — no `HashMap`/`HashSet` on the
//!   deterministic surface;
//! * **FJ08 reduction-order discipline** — shard-produced collections
//!   never feed a bare float `.sum()`;
//! * **FJ09 atomic-ordering discipline** — relaxed atomics live only in
//!   audited seams or under a justifying pragma;
//! * **FJ00 suppression hygiene** — every allow pragma justifies itself.
//!
//! No external dependencies: a small real lexer (`lexer`) keeps rules off
//! comment/string noise, a workspace walker (`workspace`) classifies
//! files from Cargo layout, a symbol pass (`symbols`) maps every file
//! onto the deterministic surface, and suppressions (`suppress`) are
//! inline, per-rule, and mandatory-justification. The driver dogfoods
//! `fj-par` (itself dependency-free): files lint in parallel shards with
//! a content-hash incremental cache (`cache`) under `target/lint/`, and
//! findings come out byte-identical for any shard count, cold or warm.
//! The binary exits 0 when clean, 1 on findings, 2 on internal errors,
//! and writes deterministic JSON artifacts under `target/lint/` for CI.

pub mod cache;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod symbols;
pub mod workspace;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cache::{Cache, FileOutcome};
use findings::Finding;
use rules::FileCtx;
use workspace::{FileClass, SourceFile};

/// Driver knobs. `Default` is what library callers and tests want: auto
/// shard count, no cache (a pure function of the tree).
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Shard count for the parallel per-file stage; `0` means
    /// [`fj_par::shard_count`] (the `FJ_SHARDS` env override applies).
    pub shards: usize,
    /// Incremental cache file; `None` disables caching entirely.
    pub cache: Option<PathBuf>,
}

/// Outcome of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Surviving (unsuppressed) findings, sorted.
    pub findings: Vec<Finding>,
    /// Non-vendor files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by justified pragmas.
    pub suppressed: usize,
    /// Files whose per-file stage was served from the cache.
    pub cache_hits: usize,
    /// Files computed fresh this run.
    pub cache_misses: usize,
    /// Shard count the per-file stage actually used.
    pub shards: usize,
    /// The deterministic-surface map (written to `surface.json`).
    pub surface: symbols::SurfaceMap,
}

/// Lints the workspace rooted at `root` with default options (auto
/// shards, no cache).
pub fn lint_root(root: &Path) -> io::Result<Report> {
    lint_root_with(root, &LintOptions::default())
}

/// Lints the workspace rooted at `root`.
///
/// The per-file stage (lex → mask → rules → pragma parse) is pure in the
/// file's bytes, class, and surface, so it runs sharded over `fj_par`
/// and caches by content hash; everything cross-file — the FJ04
/// catalogue check, the surface-map assembly, suppression, sorting — is
/// recomputed from the per-file facts every run. That split is what
/// makes the output byte-identical across shard counts and cold/warm
/// runs, which CI asserts.
pub fn lint_root_with(root: &Path, opts: &LintOptions) -> io::Result<Report> {
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let files: Vec<SourceFile> = workspace::collect(root)?
        .into_iter()
        .filter(|f| f.class != FileClass::Vendor)
        .collect();

    let old_cache = opts.cache.as_deref().map(Cache::load).unwrap_or_default();
    let shards = if opts.shards == 0 {
        fj_par::shard_count()
    } else {
        opts.shards
    };

    // Parallel per-file stage. The files travel through the pool by
    // value and come back, with their results, in index order for any
    // shard count, so downstream assembly sees the same sequence whether
    // this ran on 1 thread or 8.
    let per_file = move |_: usize, file: &mut SourceFile| {
        let id = symbols::resolve(&file.rel);
        let surface = symbols::classify(&id, file.class);
        let key = cache::file_key(&file.text, file.class.label(), surface.label());
        if let Some(hit) = old_cache.get(&file.rel, key) {
            return (key, true, hit.clone());
        }
        (key, false, lint_file(file, surface))
    };
    let pool = fj_par::WorkerPool::new(fj_par::clamp_shards(shards));
    let done = pool.submit(files, shards, || 0, per_file).wait();
    let outcomes: Vec<(u64, bool, FileOutcome)> = done.result.unwrap_or_else(|p| p.resume());
    let scanned = done.items;

    let mut new_cache = Cache::default();
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut raw_findings = Vec::new();
    let mut registrations = Vec::new();
    let mut pragma_map = Vec::new(); // (rel, pragmas)
    let mut surface_facts = Vec::new();
    let mut all_source = String::new();

    for (file, (key, hit, outcome)) in scanned.iter().zip(&outcomes) {
        if *hit {
            cache_hits += 1;
        } else {
            cache_misses += 1;
        }
        all_source.push_str(&file.text);
        raw_findings.extend(outcome.findings.iter().cloned());
        registrations.extend(outcome.registrations.iter().cloned());
        pragma_map.push((file.rel.clone(), outcome.pragmas.clone()));
        surface_facts.push((
            file.rel.clone(),
            file.class,
            outcome.mod_decls.clone(),
            outcome.shard_adjacent,
        ));
        new_cache.put(file.rel.clone(), *key, outcome.clone());
    }
    if let Some(path) = opts.cache.as_deref() {
        new_cache.store(path)?;
    }

    let surface = symbols::SurfaceMap::build(&surface_facts);
    rules::fj04::check_catalogue(&registrations, &design, &all_source, &mut raw_findings);

    // Apply suppressions (FJ00 itself is never suppressible: a pragma
    // cannot excuse its own lack of justification).
    let mut suppressed = 0usize;
    let mut surviving = Vec::new();
    for finding in raw_findings {
        let pragmas = pragma_map
            .iter()
            .find(|(rel, _)| *rel == finding.file)
            .map_or(&[][..], |(_, p)| p.as_slice());
        if finding.rule != "FJ00" && suppress::suppressed(pragmas, finding.rule, finding.line) {
            suppressed += 1;
        } else {
            surviving.push(finding);
        }
    }
    findings::sort(&mut surviving);
    Ok(Report {
        findings: surviving,
        files_scanned: scanned.len(),
        suppressed,
        cache_hits,
        cache_misses,
        shards,
        surface,
    })
}

/// The pure per-file stage: everything derivable from one file's bytes,
/// class, and surface classification. This is the unit the cache stores
/// and the shards compute.
fn lint_file(file: &SourceFile, surface: symbols::Surface) -> FileOutcome {
    let spans = lexer::lex(&file.text);
    let code = lexer::code_only(&file.text, &spans);
    let test_regions = lexer::test_regions(&code);
    let shard_adjacent = symbols::references_shard_seam(&code);
    let ctx = FileCtx {
        rel: &file.rel,
        class: file.class,
        surface,
        shard_adjacent,
        src: &file.text,
        spans: &spans,
        code: &code,
        test_regions: &test_regions,
    };
    let mut findings = Vec::new();
    rules::check_file(&ctx, &mut findings);
    let registrations = rules::fj04::collect(&ctx);
    let pragmas = suppress::parse(&file.text, &spans);
    for pragma in &pragmas {
        if !pragma.justified {
            findings.push(Finding {
                rule: "FJ00",
                file: file.rel.clone(),
                line: pragma.line,
                col: 1,
                message: format!(
                    "allow pragma for {} has no justification; add one after an \
                     `—` separator",
                    pragma.rules.join(", ")
                ),
            });
        }
    }
    FileOutcome {
        findings,
        registrations,
        pragmas,
        mod_decls: symbols::mod_decls(&code),
        shard_adjacent,
    }
}

/// Renders the `--rules` catalogue listing.
pub fn render_catalogue() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("fj-lint rule catalogue\n\n");
    for rule in rules::catalogue() {
        let _ = writeln!(out, "{}  {}  [{}]", rule.id, rule.name, rule.applies_to);
        let _ = writeln!(
            out,
            "      {}",
            rule.rationale
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    out.push_str(
        "\nsuppression: `// fj-lint: allow(FJxx) — justification` (covers its comment \
         block + the next line)\n\
         file scope:  `// fj-lint: allow-file(FJxx) — justification`\n",
    );
    out
}
