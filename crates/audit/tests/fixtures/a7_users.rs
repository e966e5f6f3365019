// Fixture: the users of `a7_violation.rs`, analyzed as a file that only
// counts as a user (so the unjustified ordering below is not reported).
use fixture::OnlyMentioned;
use fixture::Renamed as Alias;

pub fn main(flag: &std::sync::atomic::AtomicU64) {
    fixture::used_by_example();
    let _ = Alias;
    let _ = "OnlyMentioned";
    // OnlyMentioned
    flag.load(std::sync::atomic::Ordering::Acquire);
}
