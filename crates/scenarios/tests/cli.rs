//! `scenarios` as a process: a bad flag value, a missing one or an
//! unknown flag exits 2 naming the flag instead of falling back to a
//! default.

use std::process::Command;

#[test]
#[cfg_attr(miri, ignore = "spawns processes")]
fn bad_values_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--scheme", "vbr"][..], "--scheme"),
        (&["--report"][..], "--report"),
        (&["--ring-capacity", "4096"][..], "--ring-capacity"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
            .args(args)
            .output()
            .expect("scenarios runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
