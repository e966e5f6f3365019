// Fixture: rule A6 must fire four times — qualified set_var and
// remove_var, a brace import, and a short `env::` path — and stay
// silent on a child process's own environment.
use std::env::{self, remove_var};

pub fn race(cmd: &mut std::process::Command) {
    std::env::set_var("PA_CGA_X", "1");
    std::env::remove_var("PA_CGA_X");
    env::set_var("PA_CGA_Y", "2");
    cmd.env("PA_CGA_Z", "3").env_remove("PA_CGA_W");
    let _ = remove_var;
}
