//! The checked-in corpus is the only producer of its results.
//!
//! Every `scenarios/*.toml` runs through [`run_scenario`] and must:
//!
//! * pass every cell, pinned `[assert.digests]` included;
//! * replay identically: a second in-process run serializes to the same
//!   bytes, so the whole pipeline (workload, faults, measurement) is
//!   deterministic;
//! * match its committed `results/scenarios/<name>.json` byte for byte,
//!   as `scn` writes it, so a behaviour change cannot leave a stale
//!   report behind. The collated `report.json` is held to the same rule.
//!
//! After an intended change, regenerate the reports with
//! `cargo run --release -p mtp-scenario --bin scn -- scenarios/`.

use std::path::{Path, PathBuf};

use mtp_scenario::report::{collate, to_json};
use mtp_scenario::run_scenario;
use mtp_scenario::schema::from_str;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn corpus_passes_replays_and_matches_committed_reports() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("scenarios"))
        .expect("scenarios/ directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenarios found");

    let results_dir = root().join("results/scenarios");
    let mut results = Vec::new();
    for f in &files {
        let s = from_str(&read(f)).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        let r = run_scenario(&s);
        let failures: Vec<String> = r
            .cells
            .iter()
            .flat_map(|c| {
                c.violations
                    .iter()
                    .map(move |v| format!("{}/{}: {v}", c.protocol, c.seed))
            })
            .collect();
        assert!(r.passed, "scenario `{}` failed: {failures:#?}", s.name);

        let json = to_json(&r);
        assert_eq!(
            json,
            to_json(&run_scenario(&s)),
            "scenario `{}` replay diverged: the pipeline is nondeterministic",
            s.name
        );
        let committed = results_dir.join(format!("{}.json", s.name));
        assert!(
            read(&committed) == json,
            "{} is stale: regenerate it with `scn scenarios/`",
            committed.display()
        );
        results.push(r);
    }
    let report = results_dir.join("report.json");
    assert!(
        read(&report) == to_json(&collate(results)),
        "{} is stale: regenerate it with `scn scenarios/`",
        report.display()
    );
}
