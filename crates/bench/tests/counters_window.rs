//! `repro --counters` and the sweep's `--bench-json` record meter one
//! window: the checking pass. Sizing the space walks the generator
//! first, which tallies pruned functions of its own, and neither report
//! may count them.

use std::process::Command;

/// The value of counter `name` in the `--counters` table on `stdout`.
fn table_value(stdout: &str, name: &str) -> u64 {
    stdout
        .lines()
        .find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some(name)).then(|| cols.next()?.parse().ok())?
        })
        .unwrap_or_else(|| panic!("no {name} row in:\n{stdout}"))
}

/// The integer field `key` of the one-line JSON record `json`.
fn record_value(json: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + tag.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("integer field")
}

#[test]
fn counters_table_and_bench_record_report_the_same_pass() {
    let record =
        std::env::temp_dir().join(format!("frost-counters-window-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--experiment",
            "sweep",
            "--insts",
            "2",
            "--prune",
            "--budget",
            "2000",
        ])
        .arg("--counters")
        .arg("--bench-json")
        .arg(&record)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let json = std::fs::read_to_string(&record).expect("bench record written");
    std::fs::remove_file(&record).ok();
    for rule in ["commutative", "const_position", "dead"] {
        let counted = table_value(&stdout, &format!("frost.fuzz.gen.pruned.{rule}"));
        assert!(counted > 0, "a pruned sweep prunes by {rule}");
        assert_eq!(
            counted,
            record_value(&json, &format!("pruned_{rule}")),
            "pruned.{rule}: --counters and --bench-json disagree"
        );
    }
    assert_eq!(
        table_value(&stdout, "frost.fuzz.campaign.checked"),
        record_value(&json, "checked")
    );
}
