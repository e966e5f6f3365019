//! Seeded input generation and the digest that proves two runs used the
//! same generated bytes. The program under test never sees the seed:
//! it receives only what these generators produce.

use etc_model::{
    Consistency, EtcGenerator, EtcInstance, EtcMatrix, GeneratorParams, Heterogeneity,
};
use pa_cga_service::Json;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose of one workload seed.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seed that survives a JSON round trip as an f64 exactly.
    pub fn wire_seed(&mut self) -> u64 {
        self.next_u64() & 0xFFFF_FFFF
    }
}

/// FNV-1a over every generated input byte.
#[derive(Debug, Clone)]
pub struct InputDigest(u64);

impl Default for InputDigest {
    fn default() -> Self {
        InputDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl InputDigest {
    /// Folds bytes.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a matrix's exact cell bits.
    pub fn add_instance(&mut self, instance: &EtcInstance) {
        for &x in instance.etc().task_major_data() {
            self.add(&x.to_bits().to_le_bytes());
        }
    }

    /// Hex form for the run header.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A seeded instance of Braun class `class % 12` (consistency ×
/// task heterogeneity × machine heterogeneity), with cells rounded to one
/// decimal so the matrix survives JSON exactly and a 512×16 request
/// stays near 60 KB. Cycling the class by index keeps each run's class
/// mix, and so its request sizes, the same for every seed.
pub fn wire_instance(
    rng: &mut Rng,
    class: usize,
    name: String,
    n_tasks: usize,
    n_machines: usize,
) -> EtcInstance {
    let consistency =
        [Consistency::Consistent, Consistency::SemiConsistent, Consistency::Inconsistent]
            [class % 3];
    let het = |bit: usize| {
        if (class / 3) >> bit & 1 == 0 {
            Heterogeneity::Low
        } else {
            Heterogeneity::High
        }
    };
    let params = GeneratorParams {
        n_tasks,
        n_machines,
        task_heterogeneity: het(1),
        machine_heterogeneity: het(0),
        consistency,
        seed: rng.next_u64(),
    };
    let raw = EtcGenerator::new(params).generate();
    let values: Vec<f64> =
        raw.etc().task_major_data().iter().map(|&x| ((x * 10.0).round() / 10.0).max(0.1)).collect();
    EtcInstance::new(name, EtcMatrix::from_task_major(n_tasks, n_machines, values))
}

/// Makespan of `assignment` on `instance`, recomputed independently of
/// the scheduling crate: per-machine ready time plus ETC summed in
/// ascending task order. `Err` names the first invalid gene.
pub fn makespan_of(instance: &EtcInstance, assignment: &[u32]) -> Result<f64, String> {
    if assignment.len() != instance.n_tasks() {
        return Err(format!(
            "assignment length {} != {} tasks",
            assignment.len(),
            instance.n_tasks()
        ));
    }
    let m = instance.n_machines();
    let mut ct = instance.ready_times().to_vec();
    let etc = instance.etc().task_major_data();
    for (t, &g) in assignment.iter().enumerate() {
        let g = g as usize;
        if g >= m {
            return Err(format!("task {t} on machine {g} of {m}"));
        }
        ct[g] += etc[t * m + g];
    }
    Ok(ct.into_iter().fold(0.0, f64::max))
}

/// The `assignment` array of an answer, as machine ids.
pub fn assignment_of(answer: &Json) -> Result<Vec<u32>, String> {
    answer
        .get("assignment")
        .and_then(Json::as_arr)
        .ok_or("no assignment")?
        .iter()
        .map(|g| g.as_u64().and_then(|g| u32::try_from(g).ok()).ok_or_else(|| "bad gene".into()))
        .collect()
}

/// Whether a reported makespan matches the recomputed one.
pub fn same_makespan(reported: f64, recomputed: f64) -> bool {
    (reported - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let a = wire_instance(&mut Rng::new(7, 1), 5, "a".into(), 32, 4);
        let b = wire_instance(&mut Rng::new(7, 1), 5, "a".into(), 32, 4);
        let c = wire_instance(&mut Rng::new(8, 1), 5, "a".into(), 32, 4);
        let digest = |i: &EtcInstance| {
            let mut d = InputDigest::default();
            d.add_instance(i);
            d.hex()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn makespan_recompute_checks_genes() {
        let i = EtcInstance::new(
            "t",
            EtcMatrix::from_task_major(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        assert_eq!(makespan_of(&i, &[0, 0, 1]), Ok(6.0));
        assert_eq!(makespan_of(&i, &[0, 1, 0]), Ok(6.0));
        assert!(makespan_of(&i, &[0, 2, 0]).is_err());
        assert!(makespan_of(&i, &[0, 1]).is_err());
        assert!(same_makespan(6.0, 6.0 + 1e-12));
        let answer = |text: &str| Json::parse(text).expect("test JSON parses");
        assert_eq!(assignment_of(&answer(r#"{"assignment":[0,1,0]}"#)), Ok(vec![0, 1, 0]));
        assert!(assignment_of(&answer(r#"{"assignment":[0,-1]}"#)).is_err());
        assert!(assignment_of(&answer(r#"{"assignment":[0,4294967296]}"#)).is_err());
        assert!(assignment_of(&answer(r#"{"makespan":1}"#)).is_err());
        assert!(!same_makespan(6.0, 6.1));
    }
}
