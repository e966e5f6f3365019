// Fixture: rule A7 must flag the five dead `pub` items (lines 9, 15, 17,
// 19 and 21) and stay silent on the rest. `a7_users.rs` holds the uses.

/// Called from the example: used.
pub fn used_by_example() {}

/// Only this file's tests call it: dead.
#[inline]
pub fn only_tested() -> u32 {
    1
}

/// Named only in the example's comments, strings and imports: dead.
#[derive(Debug)]
pub struct OnlyMentioned;

pub const fn dead_const_fn() -> u8 { 0 }

pub static DEAD_STATIC: u8 = 0;

pub trait DeadTrait {}

/// Used under another name through a `use … as` rename.
pub struct Renamed;

/// Restricted visibility is left to rustc's dead-code lint.
pub(crate) fn restricted() {}

// pacga:allow(A7) — deliberate API; its user is crates/audit/tests/fixtures.rs.
pub fn waived() {}

#[cfg(test)]
pub fn test_only_helper() {}

/// Called by non-test code in its own file: used.
pub fn used_in_file() -> u32 {
    2
}

fn private_caller() -> u32 {
    used_in_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(only_tested() + private_caller(), 3);
    }
}
