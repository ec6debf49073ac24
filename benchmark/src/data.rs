//! Seeded workload inputs: the twelve dataset generators, two seeds each.

use bos_repro::datasets::gens;

/// Values per `append` call; the store sees round-robin batches of this size.
pub const BATCH: usize = 1024;

type IntGen = fn(usize, u64) -> Vec<i64>;
type FloatGen = fn(usize, u64) -> Vec<f64>;

enum Gen {
    Int(IntGen),
    /// Float generator and its decimal places; stored as `value × 10^p`.
    Float(FloatGen, i32),
}

/// The generators of `datasets::gens` with their table abbreviations.
/// Float sets use the decimal precision of the dataset registry.
const GENERATORS: [(&str, Gen); 12] = [
    ("EE", Gen::Int(gens::epm_education)),
    ("MT", Gen::Int(gens::metro_traffic)),
    ("VC", Gen::Int(gens::vehicle_charge)),
    ("CS", Gen::Int(gens::cs_sensors)),
    ("TC", Gen::Int(gens::th_climate)),
    ("TT", Gen::Int(gens::ty_transport)),
    ("YE", Gen::Float(gens::yz_electricity, 1)),
    ("GM", Gen::Float(gens::gw_magnetic, 2)),
    ("UE", Gen::Float(gens::usgs_earthquakes, 1)),
    ("CV", Gen::Int(gens::cyber_vehicle)),
    ("TF", Gen::Int(gens::ty_fuel)),
    ("NS", Gen::Float(gens::nifty_stocks, 2)),
];

/// Seeds drawn per generator, so every workload holds 24 series.
const COPIES: u64 = 2;

/// SplitMix64 finalizer: spreads `--seed` over the per-series seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named integer series a workload writes and reads back.
pub struct Data {
    /// `(name, values)` in generator order, names like `EE.0`.
    pub series: Vec<(String, Vec<i64>)>,
}

impl Data {
    /// Generates 24 series of `rows` values each from `seed`.
    pub fn generate(seed: u64, rows: usize) -> Data {
        let mut series = Vec::with_capacity(GENERATORS.len() * COPIES as usize);
        for (g, (abbr, gen)) in GENERATORS.iter().enumerate() {
            for copy in 0..COPIES {
                let s = mix(seed.wrapping_mul(64).wrapping_add(g as u64 * COPIES + copy));
                let values = match gen {
                    Gen::Int(f) => f(rows, s),
                    Gen::Float(f, decimals) => {
                        let scale = 10f64.powi(*decimals);
                        f(rows, s)
                            .iter()
                            .map(|v| (v * scale).round() as i64)
                            .collect()
                    }
                };
                series.push((format!("{abbr}.{copy}"), values));
            }
        }
        Data { series }
    }

    /// Total values across all series.
    pub fn values(&self) -> u64 {
        self.series.iter().map(|(_, v)| v.len() as u64).sum()
    }

    /// The values of series `name`.
    pub fn get(&self, name: &str) -> Option<&[i64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Round-robin `append` batches: batch 0 of every series, then batch
    /// 1 of every series, and so on.
    pub fn batches(&self) -> impl Iterator<Item = (&str, &[i64])> {
        let rows = self.series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        (0..rows.div_ceil(BATCH)).flat_map(move |b| {
            self.series.iter().filter_map(move |(name, values)| {
                let lo = b * BATCH;
                let hi = (lo + BATCH).min(values.len());
                (lo < hi).then(|| (name.as_str(), &values[lo..hi]))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Data::generate(7, 500);
        let b = Data::generate(7, 500);
        let c = Data::generate(8, 500);
        assert_eq!(a.series.len(), 24);
        assert_eq!(a.series, b.series);
        assert_ne!(a.series, c.series);
    }

    #[test]
    fn batches_cover_every_value_once() {
        let d = Data::generate(1, 2500);
        let total: usize = d.batches().map(|(_, b)| b.len()).sum();
        assert_eq!(total as u64, d.values());
        let first: Vec<&str> = d.batches().take(3).map(|(n, _)| n).collect();
        assert_eq!(first, ["EE.0", "EE.1", "MT.0"]);
    }
}
