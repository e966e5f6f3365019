//! # ETC model substrate
//!
//! This crate implements the *Expected Time to Compute* (ETC) model of
//! Braun et al. (JPDC 2001), the instance model used by the PA-CGA paper
//! (Pinel, Dorronsoro & Bouvry, 2010) for static scheduling of independent
//! tasks onto heterogeneous machines.
//!
//! An ETC instance is a `n_tasks × n_machines` matrix where entry
//! `ETC[t][m]` is the expected execution time of task `t` on machine `m`,
//! plus optional per-machine *ready times* (when each machine becomes free).
//!
//! The crate provides:
//!
//! * [`EtcMatrix`] — the matrix type, stored **both** task-major and
//!   machine-major (transposed). The paper reports a 5–10% speedup from
//!   using the transposed layout in the hot loops; both layouts are exposed
//!   so the ablation benchmark can compare them.
//! * [`EtcInstance`] — matrix + ready times + a name.
//! * [`generator`] — the range-based instance generation method with
//!   controllable task/machine [`heterogeneity`] and [`consistency`] class.
//! * [`braun`] — a deterministic registry of the 12 `u_x_yyzz.0` benchmark
//!   instances used in the paper (regenerated synthetically; the original
//!   files are not redistributable — see DESIGN.md §4).
//! * [`blazewicz`] — the `Q16|a ≤ pj ≤ b|Cmax` notation the paper prints.
//! * [`io`] — reading and writing instances in the classic Braun text
//!   format and in a self-describing header format.
//! * [`binary`] — the zero-parse little-endian instance codec behind the
//!   `.pacst` corpus store (see FORMAT.md at the repo root).

pub mod binary;
pub mod blazewicz;
pub mod braun;
pub mod consistency;
pub mod generator;
pub mod heterogeneity;
pub mod instance;
pub mod io;
pub mod matrix;
pub mod ranges;

pub use binary::{decode_instance, encode_instance, BinError};
pub use blazewicz::blazewicz_notation;
pub use braun::{braun_instance, braun_instance_names, braun_registry, BraunInstance};
pub use consistency::Consistency;
pub use generator::{EtcGenerator, GeneratorParams};
pub use heterogeneity::Heterogeneity;
pub use instance::EtcInstance;
pub use matrix::EtcMatrix;
pub use ranges::EtcRange;
