//! Synthetic evaluation datasets for the BOS reproduction.
//!
//! The paper evaluates on twelve real-world series (Table III), several of
//! them private partner data. This crate generates seeded substitutes whose
//! distribution shapes match Figure 8 (see `gens` for per-dataset notes and
//! DESIGN.md §2 for the substitution rationale). Row counts are scaled down
//! from the multi-hundred-million originals — compression *ratio* is
//! size-independent once blocks amortize headers.
//!
//! ```
//! use datasets::all_datasets;
//! let sets = all_datasets(10_000); // 10k values per dataset
//! assert_eq!(sets.len(), 12);
//! for d in &sets {
//!     assert!(!d.as_scaled_ints().is_empty());
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod gens;
pub mod moments;
pub mod synth;
pub mod timestamps;

/// The value type of a dataset (Table III's "Data Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// Integer series — all integer encoders apply directly.
    Integer,
    /// Float series — float codecs apply directly; integer encoders go
    /// through the `×10^p` scaling.
    Float,
}

/// The payload of a dataset.
#[derive(Debug, Clone)]
pub enum SeriesData {
    /// Integer values.
    Ints(Vec<i64>),
    /// Float values quantized to `decimals` decimal places.
    Floats {
        /// The values.
        values: Vec<f64>,
        /// Decimal precision `p` used by the `×10^p` scaling.
        decimals: u32,
    },
}

/// One evaluation dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Full name as in Table III, e.g. "EPM-Education".
    pub name: &'static str,
    /// Abbreviation used in the tables, e.g. "EE".
    pub abbr: &'static str,
    /// Value type.
    pub kind: DataType,
    /// The series.
    pub data: SeriesData,
}

impl Dataset {
    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.data {
            SeriesData::Ints(v) => v.len(),
            SeriesData::Floats { values, .. } => values.len(),
        }
    }

    /// True when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes (8 bytes per value, the paper's
    /// long/double representation).
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * 8
    }

    /// Integer view: the values themselves for integer sets, the exactly
    /// scaled `value × 10^p` integers for float sets (the conversion the
    /// paper applies before running integer encoders on float data).
    pub fn as_scaled_ints(&self) -> Vec<i64> {
        match &self.data {
            SeriesData::Ints(v) => v.clone(),
            SeriesData::Floats { values, decimals } => {
                let scale = 10f64.powi(*decimals as i32);
                values.iter().map(|&v| (v * scale).round() as i64).collect()
            }
        }
    }

    /// Float view: the values themselves for float sets, lossless casts
    /// for integer sets (every generated integer is far below 2^53).
    pub fn as_floats(&self) -> Vec<f64> {
        match &self.data {
            SeriesData::Ints(v) => v.iter().map(|&x| x as f64).collect(),
            SeriesData::Floats { values, .. } => values.clone(),
        }
    }
}

/// Dataset registry entry: name, abbreviation, type, generator.
struct Spec {
    name: &'static str,
    abbr: &'static str,
    kind: DataType,
    decimals: u32,
    gen_int: Option<fn(usize, u64) -> Vec<i64>>,
    gen_float: Option<fn(usize, u64) -> Vec<f64>>,
}

/// Registry in the column order of Figure 10a (integer sets first).
fn registry() -> Vec<Spec> {
    vec![
        Spec {
            name: "EPM-Education",
            abbr: "EE",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::epm_education),
            gen_float: None,
        },
        Spec {
            name: "Metro-Traffic",
            abbr: "MT",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::metro_traffic),
            gen_float: None,
        },
        Spec {
            name: "Vehicle-Charge",
            abbr: "VC",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::vehicle_charge),
            gen_float: None,
        },
        Spec {
            name: "CS-Sensors",
            abbr: "CS",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::cs_sensors),
            gen_float: None,
        },
        Spec {
            name: "TH-Climate",
            abbr: "TC",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::th_climate),
            gen_float: None,
        },
        Spec {
            name: "TY-Transport",
            abbr: "TT",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::ty_transport),
            gen_float: None,
        },
        Spec {
            name: "YZ-Electricity",
            abbr: "YE",
            kind: DataType::Float,
            decimals: 1,
            gen_int: None,
            gen_float: Some(gens::yz_electricity),
        },
        Spec {
            name: "GW-Magnetic",
            abbr: "GM",
            kind: DataType::Float,
            decimals: 2,
            gen_int: None,
            gen_float: Some(gens::gw_magnetic),
        },
        Spec {
            name: "USGS-Earthquakes",
            abbr: "UE",
            kind: DataType::Float,
            decimals: 1,
            gen_int: None,
            gen_float: Some(gens::usgs_earthquakes),
        },
        Spec {
            name: "Cyber-Vehicle",
            abbr: "CV",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::cyber_vehicle),
            gen_float: None,
        },
        Spec {
            name: "TY-Fuel",
            abbr: "TF",
            kind: DataType::Integer,
            decimals: 0,
            gen_int: Some(gens::ty_fuel),
            gen_float: None,
        },
        Spec {
            name: "Nifty-Stocks",
            abbr: "NS",
            kind: DataType::Float,
            decimals: 2,
            gen_int: None,
            gen_float: Some(gens::nifty_stocks),
        },
    ]
}

/// Abbreviations in Figure 10a column order.
pub const ABBREVIATIONS: [&str; 12] = [
    "EE", "MT", "VC", "CS", "TC", "TT", "YE", "GM", "UE", "CV", "TF", "NS",
];

/// Generates one dataset by abbreviation with `n` values. The seed is
/// derived from the abbreviation so every dataset differs but stays
/// reproducible. Returns `None` for unknown abbreviations.
pub fn generate(abbr: &str, n: usize) -> Option<Dataset> {
    let seed = 0xB05_u64.wrapping_mul(31).wrapping_add(
        abbr.bytes()
            .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64)),
    );
    // Vehicle-Charge keeps its original tiny size (Table III: 3 396 rows).
    let n = if abbr == "VC" { n.min(3_396) } else { n };
    generate_seeded(abbr, n, seed)
}

/// Generates one dataset by abbreviation with exactly `n` values from the
/// generator seed `seed`, so callers can draw several series of one shape.
/// Returns `None` for unknown abbreviations.
pub fn generate_seeded(abbr: &str, n: usize, seed: u64) -> Option<Dataset> {
    let spec = registry().into_iter().find(|s| s.abbr == abbr)?;
    let data = match spec.kind {
        DataType::Integer => SeriesData::Ints((spec.gen_int.expect("int gen"))(n, seed)),
        DataType::Float => SeriesData::Floats {
            values: (spec.gen_float.expect("float gen"))(n, seed),
            decimals: spec.decimals,
        },
    };
    Some(Dataset {
        name: spec.name,
        abbr: spec.abbr,
        kind: spec.kind,
        data,
    })
}

/// All twelve datasets with `n` values each (Table III order as used by
/// Figure 10a).
pub fn all_datasets(n: usize) -> Vec<Dataset> {
    ABBREVIATIONS
        .iter()
        .map(|abbr| generate(abbr, n).expect("registry covers all abbreviations"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let sets = all_datasets(1_000);
        assert_eq!(sets.len(), 12);
        let abbrs: Vec<&str> = sets.iter().map(|d| d.abbr).collect();
        assert_eq!(abbrs, ABBREVIATIONS.to_vec());
        assert_eq!(sets.iter().filter(|d| d.kind == DataType::Float).count(), 4);
    }

    #[test]
    fn unknown_abbreviation_is_none() {
        assert!(generate("XX", 100).is_none());
    }

    #[test]
    fn vehicle_charge_is_capped() {
        let d = generate("VC", 1_000_000).unwrap();
        assert_eq!(d.len(), 3_396);
    }

    #[test]
    fn scaled_ints_roundtrip_floats() {
        for abbr in ["YE", "GM", "UE", "NS"] {
            let d = generate(abbr, 2_000).unwrap();
            let SeriesData::Floats { values, decimals } = &d.data else {
                panic!("{abbr} should be float");
            };
            let ints = d.as_scaled_ints();
            let scale = 10f64.powi(*decimals as i32);
            let back: Vec<f64> = ints.iter().map(|&v| v as f64 / scale).collect();
            assert_eq!(&back, values, "{abbr} scaling not exact");
        }
    }

    #[test]
    fn uncompressed_bytes_is_8_per_value() {
        let d = generate("EE", 123).unwrap();
        assert_eq!(d.uncompressed_bytes(), 123 * 8);
    }

    #[test]
    fn datasets_are_reproducible() {
        let a = generate("CS", 5_000).unwrap().as_scaled_ints();
        let b = generate("CS", 5_000).unwrap().as_scaled_ints();
        assert_eq!(a, b);
        let c = generate("TT", 5_000).unwrap().as_scaled_ints();
        assert_ne!(a, c);
    }
}
