//! `repro live` through the release binary's command line: the summary
//! accounts for every frame the nodes sent, and the stats file holds the
//! live run alone.

use std::process::Command;

/// The number printed after `label` in `text`.
fn count_after(text: &str, label: &str) -> u64 {
    let rest = text.split(label).nth(1).unwrap_or_else(|| panic!("no `{label}` in:\n{text}"));
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("no count after `{label}` in:\n{text}"))
}

#[test]
fn a_small_live_run_accounts_for_every_frame_it_sent() {
    let stats = std::env::temp_dir().join(format!("nylon-live-cli-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["live", "--peers", "32", "--rounds", "12", "--period-ms", "100", "--stats"])
        .arg(&stats)
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro live failed:\n{stdout}");
    assert!(count_after(&stdout, "sent ") > 0, "no frame was sent:\n{stdout}");
    assert_eq!(count_after(&stdout, "unaccounted "), 0, "frames went missing:\n{stdout}");
    // The live and simulated shuffle counts print side by side.
    let live = count_after(&stdout, "   shuffles ");
    assert!(live > 0, "no live shuffle completed:\n{stdout}");
    assert!(stdout.contains(&format!("shuffles {live} live / ")), "{stdout}");

    // The simulated twin ran too, yet the fabric rows count the live run's
    // datagrams alone.
    let counters = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["stats-report", "--counters"])
        .arg(&stats)
        .output()
        .expect("repro stats-report runs");
    let _ = std::fs::remove_file(&stats);
    let counters = String::from_utf8_lossy(&counters.stdout);
    let sent = count_after(&counters, "live/packets_sent ");
    assert!(sent > 0, "no live row in the stats file:\n{counters}");
    assert_eq!(count_after(&counters, "net/datagrams_sent "), sent, "{counters}");
}
