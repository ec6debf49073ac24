//! Minimal CSV save/load for dataset snapshots.
//!
//! The paper's artifact ships its datasets as CSV; this module lets users
//! export the synthetic series (for inspection or cross-tool comparison)
//! and load their own single-column CSV series into the experiment
//! harness.

use std::fmt::{Display, Write as _};
use std::io;
use std::path::Path;

/// Writes one value per line with a `value` header.
pub fn save_ints(path: &Path, values: &[i64]) -> io::Result<()> {
    save_column(path, values)
}

/// Writes one float per line with a `value` header, full round-trippable
/// precision.
pub fn save_floats(path: &Path, values: &[f64]) -> io::Result<()> {
    save_column(path, values)
}

#[expect(
    clippy::disallowed_methods,
    reason = "a dataset export for inspection; rerunning the export regenerates it"
)]
fn save_column<T: Display>(path: &Path, values: &[T]) -> io::Result<()> {
    let mut out = String::with_capacity(values.len() * 12 + 16);
    out.push_str("value\n");
    for v in values {
        writeln!(out, "{v}").expect("string write");
    }
    std::fs::write(path, out)
}

/// Loads a single-column CSV of integers; skips a header line when the
/// first line is not numeric. Returns an error for malformed lines.
pub fn load_ints(path: &Path) -> io::Result<Vec<i64>> {
    let content = std::fs::read_to_string(path)?;
    parse_ints(&content).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Loads a single-column CSV of floats; same header handling.
pub fn load_floats(path: &Path) -> io::Result<Vec<f64>> {
    let content = std::fs::read_to_string(path)?;
    parse_floats(&content).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn parse_ints(content: &str) -> Result<Vec<i64>, String> {
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.parse::<i64>() {
            Ok(v) => out.push(v),
            Err(_) if i == 0 => continue, // header
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

fn parse_floats(content: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.parse::<f64>() {
            Ok(v) => out.push(v),
            Err(_) if i == 0 => continue,
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_roundtrip() {
        let dir = std::env::temp_dir().join("bos_csv_test_int");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("ints.csv");
        let values = vec![1i64, -5, 0, i64::MAX, i64::MIN];
        save_ints(&path, &values).unwrap();
        assert_eq!(load_ints(&path).unwrap(), values);
    }

    #[test]
    fn floats_roundtrip() {
        let dir = std::env::temp_dir().join("bos_csv_test_float");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("floats.csv");
        let values = vec![1.25f64, -0.001, 1e15, 0.0];
        save_floats(&path, &values).unwrap();
        assert_eq!(load_floats(&path).unwrap(), values);
    }

    #[test]
    fn header_is_skipped_and_garbage_rejected() {
        assert_eq!(parse_ints("value\n1\n2\n").unwrap(), vec![1, 2]);
        assert_eq!(parse_ints("7\n8\n").unwrap(), vec![7, 8]);
        assert!(parse_ints("value\n1\nxyz\n").is_err());
        assert_eq!(parse_floats("value\n1.5\n").unwrap(), vec![1.5]);
    }
}
