//! `boscli` — command-line tool for TsFile-lite archives.
//!
//! ```text
//! boscli pack    <out.tsf> <name=path.csv> [...]   pack CSV series (auto encoding)
//! boscli info    <file.tsf>                        list series, sizes, encodings
//! boscli unpack  <file.tsf> <series> [out.csv]     extract one series to CSV
//! boscli bench   <path.csv>                        compare operators on a CSV series
//! boscli stats   <path.csv> [solver] [block_size]  separation diagnostics per solver
//! boscli encode  <in.csv> <out.bin> [solver] [block_size]  raw block-codec encode
//! boscli salvage <file.tsf>                        damage report for a broken archive
//! boscli demo    <out.tsf>                         pack the 12 synthetic datasets
//! boscli store create  <dir>                       initialize a crash-consistent store
//! boscli store append  <dir> <name=path.csv> [...] append + seal integer series
//! boscli store compact <dir>                       merge small sealed files
//! boscli store status  <dir>                       files, quarantine, recovery state
//! ```
//!
//! Every command accepts `--metrics-json`: after the command succeeds, the
//! full `obs` metrics snapshot (solver tallies, codec traffic, CRC checks,
//! span timings) is printed to stdout as one JSON object. `--metrics-out
//! <path>` writes the same snapshot to a file instead, and `--trace-out
//! <path>` drains the flight-recorder trail into a chrome://tracing JSON
//! file (load it via the "Load" button or `chrome://tracing`).

use bos::SolverKind;
use datasets::csv;
use encodings::floatint::{self, FloatEncodeError};
use encodings::{OuterKind, PackerKind, Pipeline};
use std::path::Path;
use std::process::ExitCode;
use store::{Store, StoreOptions};
use tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let want_metrics = args.iter().any(|a| a == "--metrics-json");
    args.retain(|a| a != "--metrics-json");
    let (trace_out, metrics_out) = match (
        take_flag_value(&mut args, "--trace-out"),
        take_flag_value(&mut args, "--metrics-out"),
    ) {
        (Ok(t), Ok(m)) => (t, m),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("boscli: {e}");
            return ExitCode::from(2);
        }
    };
    // `salvage` contributes a structured report to the metrics JSON.
    let mut extra_json: Option<String> = None;
    let result = match args.first().map(String::as_str) {
        Some("pack") => cmd_pack(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("unpack") => cmd_unpack(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("encode") => cmd_encode(&args[1..]),
        Some("salvage") => cmd_salvage(&args[1..], &mut extra_json),
        Some("demo") => cmd_demo(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        _ => {
            eprintln!(
                "usage: boscli <pack|info|unpack|bench|stats|encode|salvage|demo|store> [--metrics-json] [--metrics-out <path>] [--trace-out <path>] ..."
            );
            eprintln!("  pack    <out.tsf> <name=path.csv> [...]");
            eprintln!("  info    <file.tsf>");
            eprintln!("  unpack  <file.tsf> <series> [out.csv]");
            eprintln!("  bench   <path.csv>");
            eprintln!("  stats   <path.csv> [solver] [block_size]   solver: bos-v|bos-b|bos-m|bos-a|... or 'all'");
            eprintln!("  encode  <in.csv> <out.bin> [solver] [block_size]");
            eprintln!("  salvage <file.tsf>");
            eprintln!("  demo    <out.tsf>");
            eprintln!("  store   create  <dir>");
            eprintln!("  store   append  <dir> <name=path.csv> [...]");
            eprintln!("  store   compact <dir>");
            eprintln!("  store   status  <dir>");
            eprintln!("  --metrics-json        print the obs metrics snapshot as JSON on success");
            eprintln!("  --metrics-out <path>  write the obs metrics snapshot JSON to a file");
            eprintln!(
                "  --trace-out <path>    write the flight-recorder trail as chrome-trace JSON"
            );
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| {
        write_observability(
            want_metrics,
            trace_out.as_deref(),
            metrics_out.as_deref(),
            extra_json.as_deref(),
        )
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("boscli: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `flag <value>` from `args` and returns the value. Errors when
/// the flag is present but trailing (no value follows it).
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a <path> argument"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Emits the post-command observability artifacts: the stdout metrics
/// dump, the metrics file, and the chrome-trace export of the trail.
fn write_observability(
    want_metrics: bool,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    extra_json: Option<&str>,
) -> CliResult {
    if want_metrics {
        println!("{}", merge_snapshot_json(extra_json));
    }
    if let Some(path) = metrics_out {
        write_output(path, merge_snapshot_json(extra_json))?;
        println!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = trace_out {
        let trail = obs::trail::drain();
        write_output(path, obs::trail::to_chrome_trace(&trail))?;
        println!(
            "wrote {} trace events to {path} ({} dropped by the ring)",
            trail.len(),
            trail.dropped
        );
    }
    Ok(())
}

type CliResult = Result<(), String>;

/// Writes one command output: a report, a trace, a converted file or the
/// demo archive.
#[expect(
    clippy::disallowed_methods,
    reason = "per-run outputs that no manifest claims; rerunning the command regenerates them"
)]
fn write_output(path: &str, bytes: impl AsRef<[u8]>) -> CliResult {
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// Splices a command-specific JSON fragment (e.g. the salvage report)
/// into the obs metrics snapshot object under a `"salvage"` key.
fn merge_snapshot_json(extra: Option<&str>) -> String {
    let mut json = obs::snapshot().to_json();
    if let Some(extra) = extra {
        if json.ends_with('}') {
            json.pop();
            json.push_str(", \"salvage\": ");
            json.push_str(extra);
            json.push('}');
        }
    }
    json
}

/// Minimal JSON string escaping for series names and paths.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed CSV column: integer series when the parse succeeds, float
/// series otherwise.
enum LoadedSeries {
    Ints(Vec<i64>),
    Floats(Vec<f64>),
}

/// Loads a CSV column, preferring the integer parse.
fn load_series(path: &Path) -> Result<LoadedSeries, String> {
    if let Ok(ints) = csv::load_ints(path) {
        return Ok(LoadedSeries::Ints(ints));
    }
    let floats = csv::load_floats(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(LoadedSeries::Floats(floats))
}

/// Loads a CSV column as integers, scaling a float column by `10^p`.
fn load_scaled_ints(path: &Path) -> Result<Vec<i64>, String> {
    match load_series(path)? {
        LoadedSeries::Ints(ints) => Ok(ints),
        LoadedSeries::Floats(floats) => match floatint::scale(&floats) {
            Ok((_, ints)) => Ok(ints),
            Err(FloatEncodeError::NoExactScaling) => {
                Err("floats have no exact decimal scaling".into())
            }
            Err(FloatEncodeError::Overflow { .. }) => Err("scaling overflow".into()),
        },
    }
}

fn cmd_pack(args: &[String]) -> CliResult {
    let [out, rest @ ..] = args else {
        return Err("pack needs <out.tsf> and at least one <name=path.csv>".into());
    };
    if rest.is_empty() {
        return Err("pack needs at least one <name=path.csv>".into());
    }
    let mut writer = TsFileWriter::new();
    let mut raw_total = 0usize;
    for spec in rest {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad series spec {spec:?}, expected name=path.csv"))?;
        match load_series(Path::new(path))? {
            LoadedSeries::Ints(ints) => {
                raw_total += ints.len() * 8;
                let choice = EncodingChoice::auto_for(&ints);
                println!(
                    "{name}: {} integers, encoding {}",
                    ints.len(),
                    choice.label()
                );
                writer
                    .add_int_series(name, &ints, choice)
                    .map_err(|e| e.to_string())?;
            }
            LoadedSeries::Floats(floats) => {
                raw_total += floats.len() * 8;
                println!(
                    "{name}: {} floats, encoding {}",
                    floats.len(),
                    EncodingChoice::TS2DIFF_BOS.label()
                );
                writer
                    .add_float_series(name, &floats, EncodingChoice::TS2DIFF_BOS)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let bytes = writer.finish();
    write_output(out, &bytes)?;
    println!(
        "wrote {out}: {} bytes ({}x vs raw {} bytes)",
        bytes.len(),
        format_ratio(raw_total as f64 / bytes.len() as f64),
        raw_total
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("info needs <file.tsf>".into());
    };
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = TsFileReader::open(&data).map_err(|e| e.to_string())?;
    println!(
        "{path}: {} bytes, {} series",
        data.len(),
        reader.series().len()
    );
    println!(
        "{:<28} {:>10} {:>7} {:<18} {:>10}",
        "series", "values", "type", "encoding", "offset"
    );
    for s in reader.series() {
        println!(
            "{:<28} {:>10} {:>7} {:<18} {:>10}",
            s.name,
            s.count,
            if s.is_float { "float" } else { "int" },
            s.encoding.label(),
            s.offset
        );
    }
    Ok(())
}

fn cmd_unpack(args: &[String]) -> CliResult {
    let (path, series, out) = match args {
        [p, s] => (p, s, None),
        [p, s, o] => (p, s, Some(o)),
        _ => return Err("unpack needs <file.tsf> <series> [out.csv]".into()),
    };
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = TsFileReader::open(&data).map_err(|e| e.to_string())?;
    let info = reader.info(series).map_err(|e| e.to_string())?;
    if info.is_float {
        let values = reader.read_floats(series).map_err(|e| e.to_string())?;
        match out {
            Some(o) => {
                csv::save_floats(Path::new(o), &values).map_err(|e| format!("{o}: {e}"))?;
                println!("wrote {} floats to {o}", values.len());
            }
            None => {
                for v in values {
                    println!("{v}");
                }
            }
        }
    } else {
        let values = reader.read_ints(series).map_err(|e| e.to_string())?;
        match out {
            Some(o) => {
                csv::save_ints(Path::new(o), &values).map_err(|e| format!("{o}: {e}"))?;
                println!("wrote {} integers to {o}", values.len());
            }
            None => {
                for v in values {
                    println!("{v}");
                }
            }
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("bench needs <path.csv>".into());
    };
    let ints = load_scaled_ints(Path::new(path))?;
    println!(
        "{}: {} values, raw {} bytes",
        path,
        ints.len(),
        ints.len() * 8
    );
    println!("{:<20} {:>8} {:>12}", "method", "ratio", "bytes");
    for outer in OuterKind::ALL {
        for packer in [
            PackerKind::Bp,
            PackerKind::FastPfor,
            PackerKind::BosB,
            PackerKind::BosM,
        ] {
            let pipeline = Pipeline::new(outer, packer);
            let mut buf = Vec::new();
            pipeline.encode(&ints, &mut buf);
            println!(
                "{:<20} {:>8} {:>12}",
                pipeline.label(),
                format_ratio(ints.len() as f64 * 8.0 / buf.len() as f64),
                buf.len()
            );
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let (path, solver_arg, block_arg) = match args {
        [p] => (p, None, None),
        [p, s] => (p, Some(s.as_str()), None),
        [p, s, b] => (p, Some(s.as_str()), Some(b.as_str())),
        _ => return Err("stats needs <path.csv> [solver|all] [block_size]".into()),
    };
    let block_size: usize = match block_arg {
        None => 1024,
        Some(b) => b
            .parse()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("bad block_size {b:?} (need an integer >= 1)"))?,
    };
    let kinds: Vec<SolverKind> = match solver_arg {
        None | Some("all") => SolverKind::ALL.to_vec(),
        Some(s) => vec![s.parse()?],
    };
    let ints = load_scaled_ints(Path::new(path))?;
    println!(
        "{}: {} values, {} blocks of {}",
        path,
        ints.len(),
        ints.len().div_ceil(block_size),
        block_size
    );
    println!(
        "{:<20} {:>11} {:>8} {:>8} {:>14} {:>9}",
        "solver", "separated", "lower%", "upper%", "bits", "improve"
    );
    for kind in kinds {
        let mut solver = kind.build();
        let s = bos::stats::analyze_series_dyn(solver.as_mut(), &ints, block_size);
        println!(
            "{:<20} {:>5}/{:<5} {:>7.2}% {:>7.2}% {:>14} {:>8}x",
            kind.label(),
            s.separated_blocks,
            s.blocks,
            100.0 * s.lower_frac(),
            100.0 * s.upper_frac(),
            s.solution_bits,
            format_ratio(s.improvement())
        );
    }
    Ok(())
}

fn cmd_encode(args: &[String]) -> CliResult {
    let (input, out, solver_arg, block_arg) = match args {
        [i, o] => (i, o, None, None),
        [i, o, s] => (i, o, Some(s.as_str()), None),
        [i, o, s, b] => (i, o, Some(s.as_str()), Some(b.as_str())),
        _ => return Err("encode needs <in.csv> <out.bin> [solver] [block_size]".into()),
    };
    let block_size: usize = match block_arg {
        None => 1024,
        Some(b) => b
            .parse()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("bad block_size {b:?} (need an integer >= 1)"))?,
    };
    let kind: SolverKind = solver_arg.unwrap_or("bos-a").parse()?;
    let ints = load_scaled_ints(Path::new(input))?;
    // At least two workers so the flight recorder sees the parallel
    // driver's dispatch/join provenance, capped to keep small inputs cheap.
    let threads = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .clamp(2, 8);
    let codec = bos::BosCodec::new(kind);
    let mut buf = Vec::new();
    bitpack::codec::encode_blocks_parallel(&codec, &ints, block_size, threads, &mut buf)
        .map_err(|e| e.to_string())?;
    write_output(out, &buf)?;
    println!(
        "wrote {out}: {} bytes from {} values ({} blocks of {block_size}, {threads} threads, solver {}, {}x vs raw)",
        buf.len(),
        ints.len(),
        ints.len().div_ceil(block_size),
        kind.label(),
        format_ratio(ints.len() as f64 * 8.0 / buf.len() as f64)
    );
    Ok(())
}

fn cmd_salvage(args: &[String], extra_json: &mut Option<String>) -> CliResult {
    let [path] = args else {
        return Err("salvage needs <file.tsf>".into());
    };
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (reader, report) = TsFileReader::open_salvage(&data);
    println!(
        "{path}: {} bytes, {} series, footer {}",
        data.len(),
        reader.series().len(),
        if report.footer_rebuilt {
            "rebuilt from body scan"
        } else {
            "intact"
        }
    );
    for s in &report.skipped {
        println!(
            "  scan skipped {} bytes {}..{}: {}",
            s.series, s.range.start, s.range.end, s.reason
        );
    }
    println!(
        "{:<28} {:>6} {:>10} {:>10} {:>6} {:<10}",
        "series", "type", "expected", "recovered", "lost", "status"
    );
    let mut damaged = 0usize;
    let mut rows = Vec::new();
    for info in reader.series() {
        let (recovered, skipped) = if info.is_float {
            let o = reader
                .read_floats_salvage(&info.name)
                .map_err(|e| e.to_string())?;
            (o.values.len(), o.skipped)
        } else {
            let o = reader
                .read_ints_salvage(&info.name)
                .map_err(|e| e.to_string())?;
            (o.values.len(), o.skipped)
        };
        let status = if skipped.is_empty() {
            "intact"
        } else {
            damaged += 1;
            "damaged"
        };
        println!(
            "{:<28} {:>6} {:>10} {:>10} {:>6} {:<10}",
            info.name,
            if info.is_float { "float" } else { "int" },
            info.count,
            recovered,
            skipped.len(),
            status
        );
        for s in &skipped {
            println!(
                "    lost chunk bytes {}..{}: {}",
                s.range.start, s.range.end, s.reason
            );
        }
        let chunk_rows: Vec<String> = skipped
            .iter()
            .map(|s| {
                format!(
                    "{{\"range\": [{}, {}], \"reason\": {}}}",
                    s.range.start,
                    s.range.end,
                    json_str(s.reason.label())
                )
            })
            .collect();
        rows.push(format!(
            "{{\"name\": {}, \"type\": {}, \"expected\": {}, \"recovered\": {}, \"skipped\": [{}]}}",
            json_str(&info.name),
            json_str(if info.is_float { "float" } else { "int" }),
            info.count,
            recovered,
            chunk_rows.join(", ")
        ));
    }
    println!("{} of {} series damaged", damaged, reader.series().len());
    let scan_rows: Vec<String> = report
        .skipped
        .iter()
        .map(|s| {
            format!(
                "{{\"series\": {}, \"range\": [{}, {}], \"reason\": {}}}",
                json_str(&s.series),
                s.range.start,
                s.range.end,
                json_str(s.reason.label())
            )
        })
        .collect();
    *extra_json = Some(format!(
        "{{\"file\": {}, \"bytes\": {}, \"footer_rebuilt\": {}, \"series_total\": {}, \
         \"series_damaged\": {}, \"scan_skipped\": [{}], \"series\": [{}]}}",
        json_str(path),
        data.len(),
        report.footer_rebuilt,
        reader.series().len(),
        damaged,
        scan_rows.join(", "),
        rows.join(", ")
    ));
    Ok(())
}

fn cmd_store(args: &[String]) -> CliResult {
    let usage = "store needs <create|append|compact|status> <dir> ...";
    let [sub, dir, rest @ ..] = args else {
        return Err(usage.into());
    };
    match (sub.as_str(), rest) {
        ("create", []) => {
            let store = Store::create(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
            println!("created store at {}", store.dir().display());
            Ok(())
        }
        ("append", specs) if !specs.is_empty() => {
            let (mut store, report) =
                Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
            print_recovery(&report);
            for spec in specs {
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad series spec {spec:?}, expected name=path.csv"))?;
                let LoadedSeries::Ints(ints) = load_series(Path::new(path))? else {
                    return Err(format!("{path}: store append takes integer series only"));
                };
                println!("{name}: appending {} integers", ints.len());
                if let Some(id) = store.append(name, &ints).map_err(|e| e.to_string())? {
                    println!("  rotation sealed file {id:06}");
                }
            }
            if let Some(id) = store.flush().map_err(|e| e.to_string())? {
                println!("sealed file {id:06}");
            }
            Ok(())
        }
        ("compact", []) => {
            let (mut store, report) =
                Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
            print_recovery(&report);
            match store.compact().map_err(|e| e.to_string())? {
                Some(id) => println!("compacted into file {id:06}"),
                None => println!(
                    "nothing to compact (need {} small files)",
                    store.options().compact_min_inputs
                ),
            }
            Ok(())
        }
        ("status", []) => {
            let (store, report) =
                Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
            print_recovery(&report);
            let status = store.status();
            println!(
                "{}: {} live files, {} quarantined, {} manifest records, next id {}",
                store.dir().display(),
                status.files.len(),
                status.quarantined.len(),
                status.manifest_records,
                status.next_id
            );
            println!(
                "{:<8} {:>8} {:>12} {:>12}",
                "file", "order", "records", "bytes"
            );
            for f in &status.files {
                println!(
                    "{:0>6}   {:>8} {:>12} {:>12}",
                    f.id, f.order, f.records, f.bytes
                );
            }
            for q in &status.quarantined {
                println!(
                    "{:0>6}   quarantined ({}): {} values salvageable, {} chunks lost",
                    q.id,
                    q.reason.label(),
                    q.recovered_values,
                    q.skipped_chunks
                );
            }
            for name in store.series_names().map_err(|e| e.to_string())? {
                let scan = store.scan_series(&name).map_err(|e| e.to_string())?;
                println!(
                    "series {:<24} {:>10} live values{}",
                    name,
                    scan.values.len(),
                    if scan.quarantined.is_empty() {
                        String::new()
                    } else {
                        format!(" (+{} in quarantine)", scan.quarantined.len())
                    }
                );
            }
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

/// Prints what recovery did, if anything — operators should see every
/// roll-forward, rollback, adoption, and quarantine decision.
fn print_recovery(report: &store::RecoveryReport) {
    if !report.acted() {
        return;
    }
    println!("recovery acted on open:");
    if report.torn_tail_truncated {
        println!("  truncated a torn manifest tail");
    }
    if report.manifest_frames_skipped > 0 {
        println!(
            "  skipped {} corrupt manifest frames",
            report.manifest_frames_skipped
        );
    }
    if report.temps_deleted > 0 {
        println!("  swept {} temp files", report.temps_deleted);
    }
    for id in &report.sealed_rolled_forward {
        println!("  rolled file {id:06} forward to sealed");
    }
    for id in &report.uncommitted_deleted {
        println!("  deleted uncommitted file {id:06}");
    }
    for id in &report.compactions_rolled_forward {
        println!("  rolled compaction forward into {id:06}");
    }
    for id in &report.compactions_rolled_back {
        println!("  rolled compaction back, dropped {id:06}");
    }
    for id in &report.orphans_adopted {
        println!("  adopted orphan file {id:06}");
    }
    for id in &report.leftovers_deleted {
        println!("  deleted retired leftover {id:06}");
    }
    for q in &report.quarantined {
        println!(
            "  quarantined file {:06} ({}): {} values salvageable",
            q.id,
            q.reason.label(),
            q.recovered_values
        );
    }
}

fn cmd_demo(args: &[String]) -> CliResult {
    let [out] = args else {
        return Err("demo needs <out.tsf>".into());
    };
    let mut writer = TsFileWriter::new();
    let mut raw = 0usize;
    for dataset in datasets::all_datasets(20_000) {
        let ints = dataset.as_scaled_ints();
        raw += ints.len() * 8;
        let choice = EncodingChoice::auto_for(&ints);
        println!(
            "{:<18} {:>7} values  {}",
            dataset.abbr,
            ints.len(),
            choice.label()
        );
        writer
            .add_int_series(dataset.name, &ints, choice)
            .map_err(|e| e.to_string())?;
    }
    let bytes = writer.finish();
    write_output(out, &bytes)?;
    println!(
        "wrote {out}: {} bytes, ratio {} vs raw",
        bytes.len(),
        format_ratio(raw as f64 / bytes.len() as f64)
    );
    Ok(())
}

fn format_ratio(r: f64) -> String {
    format!("{r:.2}")
}
