//! The 12 Braun benchmark instances used by the PA-CGA paper.
//!
//! The original `u_x_yyzz.0` files (512 tasks × 16 machines) are not
//! redistributable here, so this module **regenerates** each instance with
//! the published range-based method ([`crate::generator`]) under a fixed
//! per-name seed. The resulting instances belong to the same distribution
//! family, class and dimensions as the originals; the paper's published
//! `p_j` ranges are stored alongside so EXPERIMENTS.md can print
//! paper-vs-regenerated ranges (they match in magnitude, not in exact
//! draws — see DESIGN.md §4).

use crate::consistency::Consistency;
use crate::generator::{EtcGenerator, GeneratorParams};
use crate::heterogeneity::Heterogeneity;
use crate::instance::EtcInstance;
use crate::ranges::EtcRange;

/// Metadata for one named benchmark instance.
#[derive(Debug, Clone)]
pub struct BraunInstance {
    /// Instance name, e.g. `u_c_hihi.0`.
    pub name: &'static str,
    /// Generator parameters that regenerate our synthetic equivalent.
    pub params: GeneratorParams,
    /// The `p_j` range the paper prints for the *original* instance
    /// (Blazewicz notation, §4.1).
    pub paper_range: EtcRange,
}

impl BraunInstance {
    /// Regenerates the synthetic equivalent instance.
    pub fn instance(&self) -> EtcInstance {
        EtcGenerator::new(self.params).generate_named(self.name)
    }
}

/// Seed base; each instance offsets from it so seeds are stable constants.
const SEED_BASE: u64 = 0x9A_2010_1EAF;

/// A registry entry: the generator parameters come from the name.
fn entry(name: &'static str, pmin: f64, pmax: f64) -> BraunInstance {
    BraunInstance {
        name,
        params: parse_braun_name(name).expect("registry names follow the Braun convention"),
        paper_range: EtcRange::new(pmin, pmax),
    }
}

/// The full registry, in the paper's Table 2 order
/// (consistent, semi-consistent, inconsistent × hihi, hilo, lohi, lolo).
pub fn braun_registry() -> Vec<BraunInstance> {
    vec![
        entry("u_c_hihi.0", 26.48, 2_892_648.25),
        entry("u_c_hilo.0", 10.01, 29_316.04),
        entry("u_c_lohi.0", 12.59, 99_633.62),
        entry("u_c_lolo.0", 1.44, 975.30),
        entry("u_s_hihi.0", 185.37, 2_980_246.00),
        entry("u_s_hilo.0", 5.63, 29_346.51),
        entry("u_s_lohi.0", 4.02, 98_586.44),
        entry("u_s_lolo.0", 1.69, 969.27),
        entry("u_i_hihi.0", 75.44, 2_968_769.25),
        entry("u_i_hilo.0", 16.00, 29_914.19),
        entry("u_i_lohi.0", 13.21, 98_323.66),
        entry("u_i_lolo.0", 1.03, 973.09),
    ]
}

/// The 12 instance names, Table 2 order.
pub fn braun_instance_names() -> Vec<&'static str> {
    braun_registry().into_iter().map(|b| b.name).collect()
}

/// Regenerates a named benchmark instance.
///
/// # Panics
///
/// Panics if `name` is not one of the 12 registry names.
pub fn braun_instance(name: &str) -> EtcInstance {
    braun_registry()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown Braun instance {name:?}"))
        .instance()
}

/// Parses any Braun-convention name (`u_<c|s|i>_<hi|lo><hi|lo>.<k>`) into
/// generator parameters: the registry's `.0` entries and `k` replicas
/// beyond them (each `(class, k)` pair gets its own fixed seed).
fn parse_braun_name(name: &str) -> Option<GeneratorParams> {
    let rest = name.strip_prefix("u_")?;
    let (class, rest) = rest.split_at(1);
    let consistency = Consistency::from_code(class.chars().next()?)?;
    let rest = rest.strip_prefix('_')?;
    let (het, k) = rest.split_once('.')?;
    if het.len() != 4 {
        return None;
    }
    let task_het = Heterogeneity::from_code(&het[..2])?;
    let mach_het = Heterogeneity::from_code(&het[2..])?;
    let k: u64 = k.parse().ok()?;
    // Class index matches the registry layout; replicas offset by a
    // large stride so they never collide with other classes.
    let class_idx = match consistency {
        Consistency::Consistent => 0u64,
        Consistency::SemiConsistent => 4,
        Consistency::Inconsistent => 8,
    } + match (task_het, mach_het) {
        (Heterogeneity::High, Heterogeneity::High) => 0,
        (Heterogeneity::High, Heterogeneity::Low) => 1,
        (Heterogeneity::Low, Heterogeneity::High) => 2,
        (Heterogeneity::Low, Heterogeneity::Low) => 3,
    };
    Some(GeneratorParams::benchmark(
        consistency,
        task_het,
        mach_het,
        SEED_BASE + class_idx + 1000 * k,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::classify;

    #[test]
    fn registry_has_twelve_instances() {
        assert_eq!(braun_registry().len(), 12);
    }

    #[test]
    fn names_unique_and_well_formed() {
        let names = braun_instance_names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        for n in names {
            assert!(n.starts_with("u_") && n.ends_with(".0"), "bad name {n}");
        }
    }

    #[test]
    fn instances_have_benchmark_dimensions() {
        let inst = braun_instance("u_c_hihi.0");
        assert_eq!(inst.n_tasks(), 512);
        assert_eq!(inst.n_machines(), 16);
    }

    #[test]
    fn classes_match_names() {
        for b in braun_registry() {
            let inst = b.instance();
            assert_eq!(classify(inst.etc()), b.params.consistency, "instance {}", b.name);
        }
    }

    #[test]
    fn regenerated_ranges_match_paper_magnitude() {
        // The draws differ but the distribution family is fixed, so the
        // regenerated max must be within half an order of magnitude of the
        // paper's published max.
        for b in braun_registry() {
            let ours = b.instance().etc_range();
            assert!(
                b.paper_range.same_magnitude(&ours, 0.5),
                "{}: paper {} vs ours {}",
                b.name,
                b.paper_range,
                ours
            );
        }
    }

    #[test]
    fn deterministic_regeneration() {
        assert_eq!(braun_instance("u_i_lolo.0"), braun_instance("u_i_lolo.0"));
    }

    #[test]
    #[should_panic(expected = "unknown Braun instance")]
    fn unknown_name_panics() {
        braun_instance("u_q_zzzz.9");
    }

    #[test]
    fn name_matches_params_convention() {
        for b in braun_registry() {
            assert_eq!(b.params.braun_name(0), b.name);
        }
    }
}

#[cfg(test)]
mod replica_tests {
    use super::*;
    use crate::consistency::classify;

    fn replica(name: &str) -> EtcInstance {
        EtcGenerator::new(parse_braun_name(name).unwrap()).generate_named(name)
    }

    #[test]
    fn parse_round_trips_registry_names() {
        // The registry's seeds are pinned: entry i of Table 2 order is
        // seeded `SEED_BASE + i`, whatever derives it.
        for (i, b) in braun_registry().iter().enumerate() {
            assert_eq!(b.params.seed, SEED_BASE + i as u64, "{}", b.name);
        }
    }

    #[test]
    fn zero_replica_matches_registry_instance() {
        assert_eq!(replica("u_c_hihi.0"), braun_instance("u_c_hihi.0"));
    }

    #[test]
    fn replicas_differ_but_share_class() {
        let a = replica("u_i_hilo.0");
        let b = replica("u_i_hilo.1");
        let c = replica("u_i_hilo.2");
        assert_ne!(a.etc(), b.etc());
        assert_ne!(b.etc(), c.etc());
        for inst in [&a, &b, &c] {
            assert_eq!(classify(inst.etc()), Consistency::Inconsistent);
            assert_eq!(inst.n_tasks(), 512);
        }
    }

    #[test]
    fn bad_names_rejected() {
        assert!(parse_braun_name("u_q_hihi.0").is_none());
        assert!(parse_braun_name("u_c_hixx.0").is_none());
        assert!(parse_braun_name("u_c_hihi").is_none());
        assert!(parse_braun_name("x_c_hihi.0").is_none());
        assert!(parse_braun_name("u_c_hihi.abc").is_none());
    }
}
