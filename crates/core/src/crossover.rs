//! Recombination operators on the `S`+`CT` representation.
//!
//! The paper evaluates **one-point (opx)** and **two-point (tpx)**
//! crossover (Figure 5 concludes tpx/10 dominates opx/5 with statistical
//! significance); uniform crossover is included for ablations.
//!
//! All operators overwrite the offspring's whole assignment in one pass
//! ([`Schedule::rewrite_assignment`]) and let the schedule recompute its
//! completion times and task index from scratch in O(T + M) — cheaper
//! than paying per-gene index maintenance for the hundreds of genes a
//! crossover rewrites, and within a small constant of the retired
//! copy-then-move-each-gene scheme.

use etc_model::EtcInstance;
use rand::Rng;
use scheduling::Schedule;
use serde::{Deserialize, Serialize};

/// Recombination policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossoverOp {
    /// One-point crossover (`opx`): offspring takes `S[0..cut]` from
    /// parent 1 and the tail from parent 2.
    OnePoint,
    /// Two-point crossover (`tpx`): the segment between two cut points
    /// comes from parent 2, the rest from parent 1.
    TwoPoint,
    /// Uniform crossover: each gene from either parent with probability ½.
    Uniform,
}

impl CrossoverOp {
    /// Every operator, one-point first.
    pub const ALL: [CrossoverOp; 3] =
        [CrossoverOp::OnePoint, CrossoverOp::TwoPoint, CrossoverOp::Uniform];

    /// Canonical name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CrossoverOp::OnePoint => "opx",
            CrossoverOp::TwoPoint => "tpx",
            CrossoverOp::Uniform => "ux",
        }
    }

    /// The operator [`CrossoverOp::name`] spells `name`, if any.
    pub fn from_name(name: &str) -> Option<CrossoverOp> {
        CrossoverOp::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Recombines into `offspring` (which is overwritten). `offspring`
    /// must have the same dimensions as the parents.
    pub fn recombine_into(
        self,
        instance: &EtcInstance,
        p1: &Schedule,
        p2: &Schedule,
        offspring: &mut Schedule,
        rng: &mut impl Rng,
    ) {
        debug_assert_eq!(p1.n_tasks(), p2.n_tasks());
        debug_assert_eq!(offspring.n_tasks(), p1.n_tasks());
        let n = p1.n_tasks();
        let g1 = p1.assignment();
        let g2 = p2.assignment();
        match self {
            CrossoverOp::OnePoint => {
                let cut = rng.gen_range(0..=n);
                offspring.rewrite_assignment(instance, |t| if t < cut { g1[t] } else { g2[t] });
            }
            CrossoverOp::TwoPoint => {
                let a = rng.gen_range(0..=n);
                let b = rng.gen_range(0..=n);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                offspring.rewrite_assignment(instance, |t| {
                    if t >= lo && t < hi {
                        g2[t]
                    } else {
                        g1[t]
                    }
                });
            }
            CrossoverOp::Uniform => {
                offspring.rewrite_assignment(instance, |t| {
                    if rng.gen_bool(0.5) {
                        g2[t]
                    } else {
                        g1[t]
                    }
                });
            }
        }
    }

    /// Gene-level recombination for the batched engine path: `out` must
    /// already hold parent 1's genes (the slab row is seeded with them)
    /// and is overwritten in place with the offspring. Consumes *exactly*
    /// the RNG draws of [`CrossoverOp::recombine_into`] in the same
    /// order, so the two paths produce identical offspring from identical
    /// RNG states — the batched engine at `eval_batch = 1` replays the
    /// per-offspring loop draw for draw.
    pub fn compose_into(self, g2: &[u32], out: &mut [u32], rng: &mut impl Rng) {
        debug_assert_eq!(g2.len(), out.len());
        let n = out.len();
        match self {
            CrossoverOp::OnePoint => {
                let cut = rng.gen_range(0..=n);
                out[cut..].copy_from_slice(&g2[cut..]);
            }
            CrossoverOp::TwoPoint => {
                let a = rng.gen_range(0..=n);
                let b = rng.gen_range(0..=n);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                out[lo..hi].copy_from_slice(&g2[lo..hi]);
            }
            CrossoverOp::Uniform => {
                for t in 0..n {
                    if rng.gen_bool(0.5) {
                        out[t] = g2[t];
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`CrossoverOp::recombine_into`].
    pub fn recombine(
        self,
        instance: &EtcInstance,
        p1: &Schedule,
        p2: &Schedule,
        rng: &mut impl Rng,
    ) -> Schedule {
        let mut offspring = p1.clone();
        self.recombine_into(instance, p1, p2, &mut offspring, rng);
        offspring
    }
}

impl std::fmt::Display for CrossoverOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etc_model::EtcInstance;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use scheduling::check_schedule;

    fn parents(inst: &EtcInstance) -> (Schedule, Schedule) {
        let p1 = Schedule::from_assignment(inst, vec![0; inst.n_tasks()]);
        let p2 = Schedule::from_assignment(inst, vec![1; inst.n_tasks()]);
        (p1, p2)
    }

    #[test]
    fn names_parse_back() {
        for op in CrossoverOp::ALL {
            assert_eq!(CrossoverOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CrossoverOp::from_name("TPX"), None);
        assert_eq!(CrossoverOp::from_name(""), None);
    }

    #[test]
    fn one_point_is_prefix_suffix() {
        let inst = EtcInstance::toy(16, 3);
        let (p1, p2) = parents(&inst);
        let mut rng = SmallRng::seed_from_u64(3);
        let off = CrossoverOp::OnePoint.recombine(&inst, &p1, &p2, &mut rng);
        // Assignment must look like 0…0 1…1.
        let genes = off.assignment();
        let first_one = genes.iter().position(|&m| m == 1).unwrap_or(genes.len());
        assert!(genes[..first_one].iter().all(|&m| m == 0));
        assert!(genes[first_one..].iter().all(|&m| m == 1));
        assert!(check_schedule(&inst, &off).is_ok());
    }

    #[test]
    fn two_point_is_single_foreign_segment() {
        let inst = EtcInstance::toy(16, 3);
        let (p1, p2) = parents(&inst);
        let mut rng = SmallRng::seed_from_u64(5);
        let off = CrossoverOp::TwoPoint.recombine(&inst, &p1, &p2, &mut rng);
        // Count 0->1 and 1->0 transitions: a single interior segment of 1s
        // yields at most 2 transitions.
        let genes = off.assignment();
        let transitions = genes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(transitions <= 2, "genes: {genes:?}");
        assert!(check_schedule(&inst, &off).is_ok());
    }

    #[test]
    fn uniform_mixes_both_parents() {
        let inst = EtcInstance::toy(64, 3);
        let (p1, p2) = parents(&inst);
        let mut rng = SmallRng::seed_from_u64(9);
        let off = CrossoverOp::Uniform.recombine(&inst, &p1, &p2, &mut rng);
        let ones = off.assignment().iter().filter(|&&m| m == 1).count();
        // With 64 genes at p=1/2, [10, 54] is a ~1-in-10^8 bound.
        assert!((10..=54).contains(&ones), "ones = {ones}");
        assert!(check_schedule(&inst, &off).is_ok());
    }

    #[test]
    fn genes_come_from_a_parent() {
        // Every offspring gene equals the corresponding gene of p1 or p2.
        let inst = EtcInstance::toy(32, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        let p1 = Schedule::random(&inst, &mut rng);
        let p2 = Schedule::random(&inst, &mut rng);
        for op in CrossoverOp::ALL {
            let off = op.recombine(&inst, &p1, &p2, &mut rng);
            for t in 0..inst.n_tasks() {
                let g = off.machine_of(t);
                assert!(
                    g == p1.machine_of(t) || g == p2.machine_of(t),
                    "{op}: task {t} gene {g} from neither parent"
                );
            }
            assert!(check_schedule(&inst, &off).is_ok(), "{op}");
        }
    }

    #[test]
    fn recombine_into_reuses_buffer() {
        let inst = EtcInstance::toy(8, 2);
        let (p1, p2) = parents(&inst);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut buf = p1.clone();
        CrossoverOp::TwoPoint.recombine_into(&inst, &p1, &p2, &mut buf, &mut rng);
        assert!(check_schedule(&inst, &buf).is_ok());
    }

    #[test]
    fn compose_into_matches_recombine_into_draw_for_draw() {
        let inst = EtcInstance::toy(32, 4);
        let mut rng = SmallRng::seed_from_u64(21);
        let p1 = Schedule::random(&inst, &mut rng);
        let p2 = Schedule::random(&inst, &mut rng);
        for op in CrossoverOp::ALL {
            for seed in 0..20 {
                let mut r1 = SmallRng::seed_from_u64(seed);
                let mut r2 = SmallRng::seed_from_u64(seed);
                let mut buf = p1.clone();
                op.recombine_into(&inst, &p1, &p2, &mut buf, &mut r1);
                let mut genes = p1.assignment().to_vec();
                op.compose_into(p2.assignment(), &mut genes, &mut r2);
                assert_eq!(buf.assignment(), &genes[..], "{op} seed {seed}");
                // Both paths must leave the RNG in the same state.
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{op} seed {seed}");
            }
        }
    }

    #[test]
    fn identical_parents_reproduce_parent() {
        let inst = EtcInstance::toy(8, 2);
        let p = Schedule::round_robin(&inst);
        let mut rng = SmallRng::seed_from_u64(2);
        for op in CrossoverOp::ALL {
            let off = op.recombine(&inst, &p, &p, &mut rng);
            assert_eq!(off.assignment(), p.assignment(), "{op}");
        }
    }
}
