//! `uxm` — command-line front end for the uncertain-schema-matching
//! pipeline.
//!
//! The commands and their flags are listed in `USAGE` below, which
//! `uxm --help` prints.
//!
//! Schema files use the outline syntax (`Order(Buyer(Name) Item*(Price))`).
//! Every query-serving command speaks the unified query surface of
//! [`uxm::core::api`]: arguments build a typed [`Query`], evaluation goes
//! through [`QueryEngine::run`], failures are [`UxmError`]s reported with
//! a nonzero exit code, and `--json` emits the canonical wire format —
//! the same bytes the registry consumes. `uxm explain` builds the same
//! query but prints the plan and the compiled bytecode program instead
//! of evaluating it (see `docs/execution.md`). `uxm batch` files carry one
//! request per line, either as canonical JSON
//! (`{"engine":...,"query":{...}}`, see [`BatchQuery::to_json`]) or in
//! the legacy text form (`<engine> ptq <twig>` …). `uxm serve` puts the
//! same snapshot directory behind the threaded HTTP/JSON server of
//! [`uxm::core::server`] (see `docs/serving.md`).

use std::io::{BufWriter, StdoutLock, Write};
use std::process::ExitCode;
use uxm::core::api::{EvaluatorHint, Granularity, Query};
use uxm::core::engine::QueryEngine;
use uxm::core::error::UxmError;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{BatchQuery, EngineRegistry, RegistryConfig};
use uxm::core::router::{Router, RouterConfig};
use uxm::core::server::{Server, ServerConfig};
use uxm::core::stats::o_ratio;
use uxm::core::storage::{decode_engine_snapshot, decode_engine_snapshot_parts, snapshot_version};
use uxm::core::AggFunc;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::matching::Matcher;
use uxm::twig::TwigPattern;
use uxm::xml::{parse_document, DocGenConfig, Document, Schema};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let mut out = Out::new();
    let result = match command.as_str() {
        "match" => cmd_match(&args[1..], &mut out),
        "mappings" => cmd_mappings(&args[1..], &mut out),
        "query" => cmd_query(&args[1..], &mut out),
        "explain" => cmd_explain(&args[1..], &mut out),
        "keyword" => cmd_keyword(&args[1..], &mut out),
        "registry" => cmd_registry(&args[1..], &mut out),
        "stats" => cmd_stats(&args[1..], &mut out),
        "batch" => cmd_batch(&args[1..], &mut out),
        "serve" => cmd_serve(&args[1..], &mut out),
        "gen-doc" => cmd_gen_doc(&args[1..], &mut out),
        "dataset" => cmd_dataset(&args[1..], &mut out),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(UxmError::Usage(format!("unknown command {other:?}"))),
    };
    // Flush on failure too, so output a command wrote before failing
    // reaches stdout ahead of the error report.
    let flushed = flush(&mut out);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, UxmError::Usage(_)) {
                usage();
            }
            ExitCode::from(2)
        }
    }
}

/// The `--help` text. Every flag a command's table accepts appears on
/// that command's lines, and no other (checked by the unit test below).
const USAGE: &str = "\
usage:
  uxm match    <source.outline> <target.outline> [--strategy c|f] [--threshold X]
  uxm mappings <source.outline> <target.outline> [--h N] [--strategy c|f] [--threshold X]
  uxm query    <source.outline> <target.outline> <doc.xml> <twig> [--h N] [--k N]
               [--agg count|sum|min|max] [--mode label|node] [--hint auto|naive|block-tree|compiled]
               [--min-p X] [--granularity mapping|distinct] [--strategy c|f] [--threshold X] [--json]
  uxm explain  <source.outline> <target.outline> <doc.xml> <twig> [--h N] [--k N]
               [--agg count|sum|min|max] [--mode label|node] [--hint auto|naive|block-tree|compiled]
               [--min-p X] [--granularity mapping|distinct] [--strategy c|f] [--threshold X] [--json]
  uxm keyword  <source.outline> <target.outline> <doc.xml> <term...> [--h N] [--min-p X]
               [--granularity mapping|distinct] [--strategy c|f] [--threshold X] [--json]
  uxm registry save <name> <source.outline> <target.outline> <doc.xml> --dir D [--h N]
               [--strategy c|f] [--threshold X]
  uxm registry list --dir D
  uxm stats    <engine> --dir D
  uxm batch    <requests.txt> --dir D [--budget BYTES] [--json]
  uxm serve    --dir D [--addr IP:PORT] [--workers N] [--budget BYTES] [--queue N]
               [--per-client N] [--retry-after-ms MS] [--keep-alive-ms MS] [--thrash N] [--shards N]
  uxm gen-doc  <schema.outline> [--nodes N] [--seed N]
  uxm dataset  <D1..D10>";

fn usage() {
    eprintln!("{USAGE}");
}

/// The process's stdout, locked once and buffered. A write that fails
/// because the reader has gone away (`EPIPE`, as in `uxm gen-doc … |
/// head`) ends the process quietly with exit status 0: the reader wants
/// no more output, so there is nothing left to report.
struct Out(BufWriter<StdoutLock<'static>>);

impl Out {
    fn new() -> Out {
        Out(BufWriter::new(std::io::stdout().lock()))
    }
}

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        exit_on_closed_pipe(self.0.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        exit_on_closed_pipe(self.0.flush())
    }
}

fn exit_on_closed_pipe<T>(result: std::io::Result<T>) -> std::io::Result<T> {
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        other => other,
    }
}

fn flush(out: &mut Out) -> Result<(), UxmError> {
    out.flush().map_err(|e| UxmError::io("stdout", e))
}

/// `writeln!` into a command's [`Out`], returning a failed write as a
/// [`UxmError`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(|e| UxmError::io("stdout", e))?
    };
}

/// `write!` into a command's [`Out`], like [`outln!`].
macro_rules! outwrite {
    ($out:expr, $($arg:tt)*) => {
        write!($out, $($arg)*).map_err(|e| UxmError::io("stdout", e))?
    };
}

/// `(name, value)` pairs collected from `--flag value` options.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Flags that take no value.
const BOOL_FLAGS: [&str; 1] = ["json"];

/// The flags of `match`.
const MATCH_FLAGS: [&str; 2] = ["strategy", "threshold"];

/// The flags of `mappings`.
const MAPPINGS_FLAGS: [&str; 3] = ["h", "strategy", "threshold"];

/// The flags of `query` and `explain`.
const QUERY_FLAGS: [&str; 10] = [
    "h",
    "strategy",
    "threshold",
    "k",
    "agg",
    "mode",
    "hint",
    "min-p",
    "granularity",
    "json",
];

/// The flags of `keyword`.
const KEYWORD_FLAGS: [&str; 6] = ["h", "strategy", "threshold", "min-p", "granularity", "json"];

/// The flags of `registry save` and `registry list`.
const REGISTRY_FLAGS: [&str; 4] = ["dir", "h", "strategy", "threshold"];

/// The flags of `stats`.
const STATS_FLAGS: [&str; 1] = ["dir"];

/// The flags of `batch`.
const BATCH_FLAGS: [&str; 3] = ["dir", "budget", "json"];

/// The flags of `serve`.
const SERVE_FLAGS: [&str; 10] = [
    "dir",
    "addr",
    "workers",
    "budget",
    "queue",
    "per-client",
    "retry-after-ms",
    "keep-alive-ms",
    "thrash",
    "shards",
];

/// The flags of `gen-doc`.
const GEN_DOC_FLAGS: [&str; 2] = ["nodes", "seed"];

/// Splits positional arguments from `--flag value` options (boolean
/// flags record `"true"` without consuming a value). A flag outside
/// `known` — the command's own flags — or one given twice is a usage
/// error.
fn parse_args<'a>(
    args: &'a [String],
    known: &[&str],
) -> Result<(Vec<&'a str>, Flags<'a>), UxmError> {
    let mut positional = Vec::new();
    let mut flags: Flags<'a> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if !known.contains(&name) {
                return Err(UxmError::Usage(format!("unknown flag --{name}")));
            }
            if flag(&flags, name).is_some() {
                return Err(UxmError::Usage(format!("--{name} given twice")));
            }
            if BOOL_FLAGS.contains(&name) {
                flags.push((name, "true"));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| UxmError::Usage(format!("--{name} needs a value")))?;
            flags.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Parses `--name` as a `T`, with a default when absent.
fn parse_flag<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
    default: T,
) -> Result<T, UxmError> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| UxmError::Usage(format!("bad --{name} value {v:?}"))),
    }
}

/// Loads a schema from an outline file, or from an XSD when the file ends
/// in `.xsd` (or its content starts with an XML prolog / `<`).
fn load_schema(path: &str) -> Result<Schema, UxmError> {
    let text = std::fs::read_to_string(path).map_err(|e| UxmError::io(path, e))?;
    let trimmed = text.trim();
    if path.ends_with(".xsd") || trimmed.starts_with('<') {
        Schema::from_xsd(trimmed).map_err(|e| UxmError::Input(format!("{path}: {e}")))
    } else {
        Schema::parse_outline(trimmed).map_err(|e| UxmError::Input(format!("{path}: {e}")))
    }
}

fn matcher_from(flags: &[(&str, &str)]) -> Result<Matcher, UxmError> {
    let mut matcher = match flag(flags, "strategy") {
        Some("f") => Matcher::fragment(),
        Some("c") | None => Matcher::context(),
        Some(other) => {
            return Err(UxmError::Usage(format!(
                "unknown strategy {other:?} (use c or f)"
            )))
        }
    };
    matcher.threshold = parse_flag(flags, "threshold", matcher.threshold)?;
    Ok(matcher)
}

fn cmd_match(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &MATCH_FLAGS)?;
    let [src, tgt] = pos.as_slice() else {
        return Err(UxmError::Usage(
            "match needs <source.outline> <target.outline>".into(),
        ));
    };
    let source = load_schema(src)?;
    let target = load_schema(tgt)?;
    let matching = matcher_from(&flags)?.match_schemas(&source, &target);
    outln!(
        out,
        "{} correspondences between {} ({} elements) and {} ({} elements):",
        matching.capacity(),
        src,
        source.len(),
        tgt,
        target.len()
    );
    for c in matching.correspondences() {
        outln!(
            out,
            "  {:<40} ~ {:<40} {:.2}",
            source.path(c.source),
            target.path(c.target),
            c.score
        );
    }
    Ok(())
}

fn cmd_mappings(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &MAPPINGS_FLAGS)?;
    let [src, tgt] = pos.as_slice() else {
        return Err(UxmError::Usage(
            "mappings needs <source.outline> <target.outline>".into(),
        ));
    };
    let h: usize = parse_flag(&flags, "h", 10)?;
    let source = load_schema(src)?;
    let target = load_schema(tgt)?;
    let matching = matcher_from(&flags)?.match_schemas(&source, &target);
    let pm = PossibleMappings::top_h(&matching, h);
    outln!(
        out,
        "top-{} possible mappings (o-ratio {:.2}):",
        pm.len(),
        o_ratio(&pm)
    );
    for (id, m) in pm.iter() {
        outln!(
            out,
            "mapping {:?}: score {:.2}, p = {:.4}",
            id,
            m.score,
            m.prob
        );
        for &(s, t) in m.pairs {
            outln!(out, "    {} ~ {}", source.path(s), target.path(t));
        }
    }
    Ok(())
}

/// Builds the query-session engine shared by `query`, `explain`,
/// `keyword` and `registry save`.
fn engine_from(
    flags: &[(&str, &str)],
    src: &str,
    tgt: &str,
    doc_path: &str,
) -> Result<QueryEngine, UxmError> {
    let h: usize = parse_flag(flags, "h", 50)?;
    let source = load_schema(src)?;
    let target = load_schema(tgt)?;
    let xml = std::fs::read_to_string(doc_path).map_err(|e| UxmError::io(doc_path, e))?;
    let doc = parse_document(&xml).map_err(|e| UxmError::Input(format!("{doc_path}: {e}")))?;
    let matching = matcher_from(flags)?.match_schemas(&source, &target);
    let pm = PossibleMappings::top_h(&matching, h);
    Ok(QueryEngine::build(pm, doc))
}

/// The shared `--hint` / `--min-p` / `--granularity` option handling.
fn apply_options(mut query: Query, flags: &[(&str, &str)]) -> Result<Query, UxmError> {
    match flag(flags, "hint") {
        None | Some("auto") => {}
        Some("naive") => query = query.with_evaluator(EvaluatorHint::Naive),
        Some("block-tree") | Some("tree") => query = query.with_evaluator(EvaluatorHint::BlockTree),
        Some("compiled") => query = query.with_evaluator(EvaluatorHint::Compiled),
        Some(other) => {
            return Err(UxmError::Usage(format!(
                "unknown hint {other:?} (auto | naive | block-tree | compiled)"
            )))
        }
    }
    match flag(flags, "granularity") {
        None | Some("mapping") => {}
        Some("distinct") => query = query.with_granularity(Granularity::Distinct),
        Some(other) => {
            return Err(UxmError::Usage(format!(
                "unknown granularity {other:?} (mapping | distinct)"
            )))
        }
    }
    if let Some(p) = flag(flags, "min-p") {
        let p: f64 = p
            .parse()
            .map_err(|_| UxmError::Usage(format!("bad --min-p value {p:?}")))?;
        query = query.with_min_probability(p);
    }
    Ok(query)
}

/// Builds the twig-shaped query `query` and `explain` share from the
/// `--mode` / `--k` / `--agg` flags.
fn twig_query_from(pattern: TwigPattern, flags: &[(&str, &str)]) -> Result<Query, UxmError> {
    if let Some(name) = flag(flags, "agg") {
        let func = AggFunc::from_wire(name).ok_or_else(|| {
            UxmError::Usage(format!(
                "bad --agg value {name:?} (count | sum | min | max)"
            ))
        })?;
        if flag(flags, "k").is_some() || flag(flags, "mode").is_some() {
            return Err(UxmError::Usage(
                "--agg cannot be combined with --k or --mode".into(),
            ));
        }
        return Ok(Query::aggregate(pattern, func));
    }
    match (flag(flags, "mode"), flag(flags, "k")) {
        (Some("node"), Some(_)) => Err(UxmError::Usage(
            "--k with --mode node is not supported; drop one".into(),
        )),
        (Some("node"), None) => Ok(Query::ptq_nodes(pattern)),
        (Some("label") | None, Some(k)) => {
            let k: usize = k
                .parse()
                .map_err(|_| UxmError::Usage(format!("bad --k value {k:?}")))?;
            Ok(Query::topk(pattern, k))
        }
        (Some("label") | None, None) => Ok(Query::ptq(pattern)),
        (Some(other), _) => Err(UxmError::Usage(format!(
            "unknown mode {other:?} (label | node)"
        ))),
    }
}

fn cmd_query(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &QUERY_FLAGS)?;
    let [src, tgt, doc_path, query_text] = pos.as_slice() else {
        return Err(UxmError::Usage(
            "query needs <source.outline> <target.outline> <doc.xml> <twig>".into(),
        ));
    };
    let pattern = TwigPattern::parse(query_text)?;
    let query = apply_options(twig_query_from(pattern, &flags)?, &flags)?;
    let engine = engine_from(&flags, src, tgt, doc_path)?;
    let response = engine.run(&query)?;

    if flag(&flags, "json").is_some() {
        outln!(out, "{}", response.to_json_string());
        return Ok(());
    }
    let doc = engine.document();
    if let Some(agg) = &response.aggregate {
        let show = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v}"));
        outln!(
            out,
            "{query} over {} mappings: marginal {} ({} row(s), plan {} ({}))",
            engine.mappings().len(),
            show(agg.marginal),
            agg.rows.len(),
            response.stats.plan.evaluator,
            response.stats.plan.reason,
        );
        for r in &agg.rows {
            outln!(
                out,
                "  mapping {:<4} p = {:.3}  {}",
                r.mapping.0,
                r.probability,
                show(r.value)
            );
        }
        return Ok(());
    }
    outln!(
        out,
        "{query} over {} mappings: {} answer(s) ({} relevant), plan {} ({}), \
         expected match count {:.2}",
        engine.mappings().len(),
        response.len(),
        response.stats.relevant,
        response.stats.plan.evaluator,
        response.stats.plan.reason,
        response.expected_count()
    );
    for (m, p) in response.match_probabilities().into_iter().take(20) {
        let Some(&leaf) = m.nodes.last() else {
            continue;
        };
        let text = doc.text(leaf).unwrap_or("");
        outln!(out, "  p = {:.3}  {} {}", p, doc.path(leaf), text);
    }
    Ok(())
}

/// `uxm explain` — print the plan and the compiled bytecode program for
/// a query without running it (see `docs/execution.md`).
fn cmd_explain(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &QUERY_FLAGS)?;
    let [src, tgt, doc_path, query_text] = pos.as_slice() else {
        return Err(UxmError::Usage(
            "explain needs <source.outline> <target.outline> <doc.xml> <twig>".into(),
        ));
    };
    let pattern = TwigPattern::parse(query_text)?;
    let query = apply_options(twig_query_from(pattern, &flags)?, &flags)?;
    let engine = engine_from(&flags, src, tgt, doc_path)?;
    let explain = engine.explain(&query)?;
    if flag(&flags, "json").is_some() {
        outln!(out, "{}", explain.to_json());
        return Ok(());
    }
    outln!(out, "{query}");
    outwrite!(out, "{explain}");
    Ok(())
}

fn cmd_keyword(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &KEYWORD_FLAGS)?;
    let [src, tgt, doc_path, terms @ ..] = pos.as_slice() else {
        return Err(UxmError::Usage(
            "keyword needs <source.outline> <target.outline> <doc.xml> <term...>".into(),
        ));
    };
    let query = apply_options(
        Query::keyword(terms.iter().map(|t| t.to_string()).collect()),
        &flags,
    )?;
    let engine = engine_from(&flags, src, tgt, doc_path)?;
    let response = engine.run(&query)?;
    if flag(&flags, "json").is_some() {
        outln!(out, "{}", response.to_json_string());
        return Ok(());
    }
    let doc = engine.document();
    outln!(
        out,
        "keywords {:?} over {} mappings: {} answer(s)",
        terms,
        engine.mappings().len(),
        response.len()
    );
    for a in response.answers.iter().take(20) {
        let paths: Vec<String> = a
            .matches
            .iter()
            .filter_map(|m| m.nodes.first().map(|&n| doc.path(n)))
            .collect();
        outln!(out, "  p = {:.3}  {:?}", a.probability, paths);
    }
    Ok(())
}

/// `uxm registry save|list` — manage the on-disk engine-snapshot set.
fn cmd_registry(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &REGISTRY_FLAGS)?;
    let dir = flag(&flags, "dir")
        .ok_or_else(|| UxmError::Usage("registry needs --dir <snapshot-dir>".into()))?;
    match pos.as_slice() {
        ["save", name, src, tgt, doc_path] => {
            let registry = EngineRegistry::new().snapshot_dir(dir);
            let engine = registry.insert(*name, engine_from(&flags, src, tgt, doc_path)?);
            let path = registry.save(name)?;
            outln!(
                out,
                "saved {name:?} to {} (snapshot v{}, {} bytes on disk, ~{} KiB resident): \
                 |M|={}, {} doc nodes",
                path.display(),
                uxm::core::storage::SNAPSHOT_VERSION,
                std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                engine.approx_bytes() / 1024,
                engine.mappings().len(),
                engine.document().len(),
            );
            Ok(())
        }
        ["list"] => {
            let mut entries: Vec<_> = std::fs::read_dir(dir)
                .map_err(|e| UxmError::io(dir, e))?
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "uxm"))
                .map(|e| e.path())
                .collect();
            entries.sort();
            outln!(out, "{} snapshot(s) in {dir}:", entries.len());
            for path in entries {
                let name = path.file_stem().unwrap_or_default().to_string_lossy();
                let bytes = std::fs::read(&path).map_err(|e| UxmError::io(path.display(), e))?;
                // Parts-level decode: listing should not pay for session
                // state (symbol tables, bitsets) it never queries.
                match decode_engine_snapshot_parts(&bytes) {
                    Ok(snap) => outln!(
                        out,
                        "  {name:<24} {:>9} bytes  |M|={:<4} doc={:<6} {} -> {}",
                        bytes.len(),
                        snap.mappings.len(),
                        snap.document.len(),
                        snap.mappings.source.name,
                        snap.mappings.target.name,
                    ),
                    Err(e) => outln!(out, "  {name:<24} UNREADABLE: {e}"),
                }
            }
            Ok(())
        }
        _ => Err(UxmError::Usage(
            "registry needs: save <name> <source> <target> <doc.xml> --dir D, \
             or list --dir D"
                .into(),
        )),
    }
}

/// `uxm stats <engine> --dir D` — decode one snapshot and report the
/// resident per-component footprint (the registry's LRU accounting).
fn cmd_stats(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &STATS_FLAGS)?;
    let [name] = pos.as_slice() else {
        return Err(UxmError::Usage("stats needs <engine> --dir D".into()));
    };
    let dir = flag(&flags, "dir")
        .ok_or_else(|| UxmError::Usage("stats needs --dir <snapshot-dir>".into()))?;
    let path = std::path::Path::new(dir).join(format!("{name}.uxm"));
    let bytes = std::fs::read(&path).map_err(|e| UxmError::io(path.display(), e))?;
    let version = snapshot_version(&bytes)?;
    let start = std::time::Instant::now();
    let engine = decode_engine_snapshot(&bytes)?;
    let hydrate_us = start.elapsed().as_micros();
    let fp = engine.footprint();
    let total = fp.total().max(1);
    outln!(
        out,
        "{name}: snapshot v{version}, {} bytes on disk -> {} bytes resident ({:.2}x), \
         cold hydration {:.2} ms",
        bytes.len(),
        fp.total(),
        fp.total() as f64 / bytes.len().max(1) as f64,
        hydrate_us as f64 / 1000.0,
    );
    outln!(
        out,
        "  |M| = {} ({} pairs), {} doc nodes ({} labels, {} text bytes, {} attr bytes)",
        engine.mappings().len(),
        engine.mappings().total_pairs(),
        engine.document().len(),
        engine.document().label_count(),
        engine.document().text_bytes(),
        engine.document().attr_bytes(),
    );
    for (label, bytes) in [
        ("document", fp.document),
        ("mappings", fp.mappings),
        ("block-tree", fp.block_tree),
        ("schemas", fp.schemas),
        ("session", fp.session),
        ("path-index", fp.path_index),
    ] {
        outln!(
            out,
            "  {label:<12} {bytes:>10} B  {:>5.1}%",
            100.0 * bytes as f64 / total as f64
        );
    }
    outln!(out, "  {:<12} {:>10} B", "total", fp.total());
    Ok(())
}

/// Parses one legacy text request line of a batch file:
/// `<engine> ptq <twig>` | `<engine> basic <twig>` |
/// `<engine> topk <k> <twig>` | `<engine> keyword <term...>`.
/// JSON lines (starting with `{`) are handled by
/// [`BatchQuery::from_json_str`] instead.
fn parse_request_line(line: &str, lineno: usize) -> Result<BatchQuery, UxmError> {
    let err = |msg: String| UxmError::Usage(format!("line {lineno}: {msg}"));
    let mut parts = line.split_whitespace();
    let engine = parts
        .next()
        .ok_or_else(|| err("missing engine name".into()))?;
    let kind = parts
        .next()
        .ok_or_else(|| err("missing request kind".into()))?;
    let parse_twig = |s: Option<&str>| -> Result<TwigPattern, UxmError> {
        let s = s.ok_or_else(|| err("missing twig pattern".into()))?;
        TwigPattern::parse(s).map_err(|e| err(format!("bad twig {s:?}: {e}")))
    };
    // Twig-shaped requests take exactly one pattern token; anything after
    // it is a mistake (e.g. a pattern accidentally split by a space), not
    // something to silently drop.
    let done = |q: BatchQuery, mut rest: std::str::SplitWhitespace<'_>| match rest.next() {
        None => Ok(q),
        Some(extra) => Err(err(format!("unexpected trailing token {extra:?}"))),
    };
    match kind {
        "ptq" => {
            let q = parse_twig(parts.next())?;
            done(BatchQuery::ptq(engine, q), parts)
        }
        "basic" => {
            let q = parse_twig(parts.next())?;
            done(BatchQuery::basic(engine, q), parts)
        }
        "topk" => {
            let k: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| err("topk needs <k> <twig>".into()))?;
            let q = parse_twig(parts.next())?;
            done(BatchQuery::topk(engine, q, k), parts)
        }
        "keyword" => {
            let terms: Vec<String> = parts.map(str::to_string).collect();
            if terms.is_empty() {
                return Err(err("keyword needs at least one term".into()));
            }
            Ok(BatchQuery::keyword(engine, terms))
        }
        other => Err(err(format!(
            "unknown request kind {other:?} (ptq | basic | topk | keyword)"
        ))),
    }
}

/// `uxm batch` — answer a request file against a snapshot directory.
fn cmd_batch(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &BATCH_FLAGS)?;
    let [requests_path] = pos.as_slice() else {
        return Err(UxmError::Usage("batch needs <requests.txt> --dir D".into()));
    };
    let dir = flag(&flags, "dir")
        .ok_or_else(|| UxmError::Usage("batch needs --dir <snapshot-dir>".into()))?;
    let budget: usize = parse_flag(&flags, "budget", 0)?;
    let as_json = flag(&flags, "json").is_some();
    let text =
        std::fs::read_to_string(requests_path).map_err(|e| UxmError::io(requests_path, e))?;
    let queries = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|(i, l)| {
            let line = l.trim();
            if line.starts_with('{') {
                BatchQuery::from_json_str(line).map_err(|e| match e {
                    // Prefix the line number inside the variant so the
                    // "wire format:" display prefix is not duplicated.
                    UxmError::Json(msg) => UxmError::Json(format!("line {}: {msg}", i + 1)),
                    other => UxmError::Json(format!("line {}: {other}", i + 1)),
                })
            } else {
                parse_request_line(line, i + 1)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;

    let registry = EngineRegistry::with_config(RegistryConfig {
        memory_budget: budget,
        ..RegistryConfig::default()
    })
    .snapshot_dir(dir);
    let start = std::time::Instant::now();
    let answers = registry.batch(&queries);
    let elapsed = start.elapsed().as_secs_f64();

    let mut failures = 0usize;
    for (q, a) in queries.iter().zip(&answers) {
        match a {
            Ok(response) if as_json => {
                outln!(out, "{}", response.to_json_string());
            }
            Ok(response) => outln!(
                out,
                "{:<16} {} -> {} answer(s), plan {}, expected count {:.2}",
                q.engine,
                q.query,
                response.len(),
                response.stats.plan.evaluator,
                response.expected_count()
            ),
            Err(e) => {
                failures += 1;
                if as_json {
                    let obj = uxm::core::json::Json::Obj(vec![(
                        "error".to_string(),
                        uxm::core::json::Json::Str(e.to_string()),
                    )]);
                    outln!(out, "{obj}");
                } else {
                    outln!(out, "{:<16} {} -> error: {e}", q.engine, q.query);
                }
            }
        }
    }
    if !as_json {
        outln!(
            out,
            "{} request(s) in {elapsed:.3}s ({:.0} req/s), {} engine(s) resident (~{} KiB), {failures} failed",
            queries.len(),
            queries.len() as f64 / elapsed.max(1e-9),
            registry.len(),
            registry.resident_bytes() / 1024,
        );
    }
    if failures > 0 {
        return Err(UxmError::Batch { failed: failures });
    }
    Ok(())
}

/// `uxm serve` — the threaded HTTP/JSON query server over a snapshot
/// directory (see `uxm::core::server` and `docs/serving.md`). Engines
/// hydrate lazily on first request; the process serves until killed.
/// With `--shards N` the same directory is served by N shard
/// registries behind a consistent-hash router (see `docs/sharding.md`);
/// `--budget` is then the cluster total, split evenly per shard.
fn cmd_serve(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &SERVE_FLAGS)?;
    if let Some(extra) = pos.first() {
        return Err(UxmError::Usage(format!(
            "serve takes no positional arguments, got {extra:?}"
        )));
    }
    let dir = flag(&flags, "dir")
        .ok_or_else(|| UxmError::Usage("serve needs --dir <snapshot-dir>".into()))?;
    let addr = flag(&flags, "addr").unwrap_or("127.0.0.1:8080");
    let workers: usize = parse_flag(&flags, "workers", 0)?;
    let budget: usize = parse_flag(&flags, "budget", 0)?;
    let defaults = ServerConfig::default();
    let queue: usize = parse_flag(&flags, "queue", defaults.queue_depth)?;
    let per_client: usize = parse_flag(&flags, "per-client", defaults.max_conns_per_client)?;
    let retry_after_ms: u64 = parse_flag(&flags, "retry-after-ms", defaults.retry_after_ms)?;
    let keep_alive_ms: u64 = parse_flag(
        &flags,
        "keep-alive-ms",
        defaults.keep_alive_timeout.as_millis() as u64,
    )?;
    let thrash: usize = parse_flag(&flags, "thrash", 0)?;
    let shards: usize = parse_flag(&flags, "shards", 0)?;

    let config = ServerConfig {
        workers,
        queue_depth: queue,
        max_conns_per_client: per_client,
        retry_after_ms,
        keep_alive_timeout: std::time::Duration::from_millis(keep_alive_ms),
        ..ServerConfig::default()
    };
    let registry_config = |memory_budget| RegistryConfig {
        memory_budget,
        thrash_evictions: thrash,
        ..RegistryConfig::default()
    };
    let banner = |local: std::net::SocketAddr, snapshots: &[String], shard_note: &str| {
        let mut text = format!(
            "uxm serve on http://{local} — {} worker(s), {} snapshot(s) in {dir}{}{shard_note}",
            config.effective_workers(),
            snapshots.len(),
            if budget > 0 {
                format!(", budget {budget} bytes")
            } else {
                String::new()
            }
        );
        for name in snapshots {
            text += &format!("\n  {name}");
        }
        text += &format!(
            "\nadmission: queue {queue}, per-client cap {per_client}, retry-after {retry_after_ms}ms{}",
            if thrash > 0 {
                format!(", thrash gate at {thrash} evictions")
            } else {
                String::new()
            }
        );
        text
    };

    if shards > 0 {
        // Sharded: N registries behind the consistent-hash router. The
        // budget is the cluster total — each shard gets an even split.
        let router = Router::start(
            dir,
            RouterConfig {
                shards,
                registry: registry_config(budget / shards),
                ..RouterConfig::default()
            },
        )?;
        let front = router.bind(addr, config.clone())?;
        let local = front.local_addr();
        let snapshots = router.known_names();
        outln!(
            out,
            "{}",
            banner(local, &snapshots, &format!(", {shards} shard(s)"))
        );
        outln!(
            out,
            "routes: POST /query/<engine>  POST /batch  POST /topk  POST /aggregate  GET /engines  GET /stats  GET /shards  GET /healthz"
        );
        // The banner is the caller's only way to learn an ephemeral
        // port: flush it before serving forever.
        flush(out)?;
        front.start().wait();
        return Ok(());
    }

    let registry =
        std::sync::Arc::new(EngineRegistry::with_config(registry_config(budget)).snapshot_dir(dir));
    let snapshots = registry.snapshot_names();
    let server = Server::bind(std::sync::Arc::clone(&registry), addr, config.clone())?;
    let local = server.local_addr();
    outln!(out, "{}", banner(local, &snapshots, ""));
    outln!(
        out,
        "routes: POST /query/<engine>  POST /batch  POST /topk  POST /aggregate  GET /engines  GET /stats  GET /healthz"
    );
    flush(out)?;
    server.start().wait();
    Ok(())
}

fn cmd_gen_doc(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, flags) = parse_args(args, &GEN_DOC_FLAGS)?;
    let [schema_path] = pos.as_slice() else {
        return Err(UxmError::Usage("gen-doc needs <schema.outline>".into()));
    };
    let nodes: usize = parse_flag(&flags, "nodes", 200)?;
    let seed: u64 = parse_flag(&flags, "seed", 42)?;
    let schema = load_schema(schema_path)?;
    let doc = Document::generate(
        &schema,
        &DocGenConfig {
            target_nodes: nodes,
            max_repeat: 4,
            text_prob: 0.9,
        },
        seed,
    );
    outln!(out, "{}", uxm::xml::writer::to_xml_pretty(&doc, 2));
    Ok(())
}

fn cmd_dataset(args: &[String], out: &mut Out) -> Result<(), UxmError> {
    let (pos, _) = parse_args(args, &[])?;
    let [name] = pos.as_slice() else {
        return Err(UxmError::Usage("dataset needs an id (D1..D10)".into()));
    };
    let id = DatasetId::all()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| UxmError::Usage(format!("unknown dataset {name:?}")))?;
    let d = Dataset::load(id);
    let (s, t, cap, o) = id.paper_row();
    outln!(out, "{}: |S|={s} |T|={t}", id.name());
    outln!(out, "  paper:    capacity {cap}, o-ratio {o:.2}");
    let pm = PossibleMappings::top_h(&d.matching, 100);
    outln!(
        out,
        "  measured: capacity {}, o-ratio {:.2} (|M|=100)",
        d.capacity(),
        o_ratio(&pm)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--name`s written on `command`'s lines of [`USAGE`]: the
    /// lines that begin `uxm <command>` and the indented lines after
    /// each of them.
    fn usage_flags(command: &str) -> Vec<String> {
        let mut flags = Vec::new();
        let mut ours = false;
        for line in USAGE.lines().skip(1) {
            if let Some(rest) = line.trim_start().strip_prefix("uxm ") {
                ours = rest.split_whitespace().next() == Some(command);
            }
            if !ours {
                continue;
            }
            for piece in line.split("--").skip(1) {
                let name: String = piece
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                flags.push(name);
            }
        }
        flags
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        let tables: [(&str, &[&str]); 11] = [
            ("match", &MATCH_FLAGS),
            ("mappings", &MAPPINGS_FLAGS),
            ("query", &QUERY_FLAGS),
            ("explain", &QUERY_FLAGS),
            ("keyword", &KEYWORD_FLAGS),
            ("registry", &REGISTRY_FLAGS),
            ("stats", &STATS_FLAGS),
            ("batch", &BATCH_FLAGS),
            ("serve", &SERVE_FLAGS),
            ("gen-doc", &GEN_DOC_FLAGS),
            ("dataset", &[]),
        ];
        for (command, table) in tables {
            let listed = usage_flags(command);
            for name in table {
                assert!(
                    listed.iter().any(|l| l == name),
                    "`uxm {command}` accepts --{name}, but its usage lines omit it"
                );
            }
            for name in &listed {
                assert!(
                    table.contains(&name.as_str()),
                    "`uxm {command}`'s usage lines list --{name}, which it refuses"
                );
            }
        }
    }
}
