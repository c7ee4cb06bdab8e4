//! `repro sweep` rejects out-of-domain grid values at argument parsing:
//! an error naming the flag and a plain failure exit, never a panic
//! (exit code 101) from deep inside the scenario builders.

use std::process::Command;

fn sweep(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("sweep")
        .args(["--topologies", "fig1", "--seeds", "1"])
        .args(args)
        .output()
        .expect("repro binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn out_of_domain_grid_values_are_rejected_naming_the_flag() {
    for (flag, value) in [
        ("--loads", "-0.1"),
        ("--loads", "nan"),
        ("--loads", "0.1,inf"),
        ("--betas", "-1"),
        ("--betas", "nan"),
        ("--q", "0"),
        ("--q", "-inf"),
        ("--sim-warmup-frac", "-1"),
        ("--sim-warmup-frac", "1"),
        ("--sim-warmup-frac", "nan"),
        ("--sim-durations", "0"),
        ("--sim-durations", "1,inf"),
        ("--sim-durations", "nan"),
    ] {
        let (code, stderr) = sweep(&[flag, value]);
        assert_eq!(code, Some(1), "{flag} {value}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag}: ")) && stderr.contains("out of range"),
            "{flag} {value}: stderr {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}
