//! Exploration-rate (γ) schedules.
//!
//! The paper's implementation (§V) uses `γ = b^{-1/3}` where `b` is the block
//! index, so exploration decays over time and the convergence argument of
//! Theorem 1 (which requires γ → 0) applies. A fixed γ is also provided for
//! textbook EXP3.

use serde::{Deserialize, Serialize};

/// A schedule mapping a decision index (block or slot, 1-based) to γ ∈ (0, 1].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GammaSchedule {
    /// Constant exploration rate.
    Fixed(f64),
    /// `γ(b) = b^{-1/3}`, clamped to `[floor, 1]`; the paper's choice, after
    /// Maghsudi & Stanczak (relay selection with adversarial bandits).
    InverseCubeRoot {
        /// Lower clamp preventing γ from reaching exactly 0 (keeps the
        /// distribution mixed); the paper effectively uses 0.
        floor: f64,
    },
}

impl GammaSchedule {
    /// The paper's default schedule: `γ = b^{-1/3}` with a tiny floor.
    #[must_use]
    pub fn paper_default() -> Self {
        GammaSchedule::InverseCubeRoot { floor: 1e-3 }
    }

    /// Evaluates the schedule at `index` (1-based). An `index` of 0 is treated
    /// as 1. Never panics: an `InverseCubeRoot` floor above 1 saturates at 1,
    /// and a NaN, zero or negative floor imposes no floor.
    ///
    /// Every fresh decision of every session evaluates the schedule, so the
    /// common small indices read a process-wide precomputed table instead of
    /// paying a `powf` each time; the table holds exactly the values the
    /// direct computation produces.
    #[must_use]
    pub fn value(&self, index: usize) -> f64 {
        match *self {
            GammaSchedule::Fixed(gamma) => gamma.clamp(f64::MIN_POSITIVE, 1.0),
            GammaSchedule::InverseCubeRoot { floor } => {
                let index = index.max(1);
                let raw = inverse_cube_root_cached(index);
                // A NaN floor fails the comparison and imposes no floor.
                let floor = if floor > f64::MIN_POSITIVE {
                    floor.min(1.0)
                } else {
                    f64::MIN_POSITIVE
                };
                raw.clamp(floor, 1.0)
            }
        }
    }
}

/// `index^{-1/3}`, read from a lazily initialised table for small indices.
fn inverse_cube_root_cached(index: usize) -> f64 {
    use std::sync::OnceLock;
    const TABLE_SIZE: usize = 4_096;
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    if index < TABLE_SIZE {
        let table = TABLE.get_or_init(|| {
            (0..TABLE_SIZE)
                .map(|b| inverse_cube_root(b.max(1)))
                .collect()
        });
        table[index]
    } else {
        inverse_cube_root(index)
    }
}

fn inverse_cube_root(index: usize) -> f64 {
    (index as f64).powf(-1.0 / 3.0)
}

impl Default for GammaSchedule {
    fn default() -> Self {
        GammaSchedule::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_schedule_is_constant_and_clamped() {
        let schedule = GammaSchedule::Fixed(0.3);
        assert_eq!(schedule.value(1), 0.3);
        assert_eq!(schedule.value(1000), 0.3);
        assert_eq!(GammaSchedule::Fixed(5.0).value(10), 1.0);
    }

    #[test]
    fn inverse_cube_root_starts_at_one_and_decays() {
        let schedule = GammaSchedule::paper_default();
        assert!((schedule.value(1) - 1.0).abs() < 1e-12);
        assert!((schedule.value(8) - 0.5).abs() < 1e-12);
        assert!(schedule.value(1000) < schedule.value(10));
    }

    #[test]
    fn floor_is_respected() {
        let schedule = GammaSchedule::InverseCubeRoot { floor: 0.05 };
        assert!(schedule.value(usize::MAX / 2) >= 0.05);
    }

    #[test]
    fn out_of_range_floors_saturate_instead_of_panicking() {
        let unfloored = GammaSchedule::InverseCubeRoot { floor: 0.0 };
        for (floor, expected_at_8) in [
            (2.0, 1.0),
            (f64::INFINITY, 1.0),
            (f64::NAN, 0.5),
            (-1.0, 0.5),
            (0.0, 0.5),
        ] {
            let schedule = GammaSchedule::InverseCubeRoot { floor };
            assert_eq!(schedule.value(8), expected_at_8, "floor {floor}");
            for index in [0, 1, 1000, usize::MAX] {
                let gamma = schedule.value(index);
                assert!(gamma > 0.0 && gamma <= 1.0, "floor {floor} at {index}");
                if expected_at_8 < 1.0 {
                    assert_eq!(gamma, unfloored.value(index), "floor {floor}");
                }
            }
        }
        // Floors in (0, 1] keep the unsaturated clamp bit for bit.
        for floor in [f64::MIN_POSITIVE, 1e-3, 0.05, 0.5, 0.9, 1.0] {
            let schedule = GammaSchedule::InverseCubeRoot { floor };
            for index in [1, 2, 8, 27, 1000, 4095, 4096, 1 << 40] {
                let direct = (index as f64).powf(-1.0 / 3.0).clamp(floor, 1.0);
                assert_eq!(
                    schedule.value(index).to_bits(),
                    direct.to_bits(),
                    "floor {floor} at {index}"
                );
            }
        }
    }

    #[test]
    fn index_zero_is_treated_as_one() {
        let schedule = GammaSchedule::paper_default();
        assert_eq!(schedule.value(0), schedule.value(1));
    }
}
