#![recursion_limit = "256"]
//! Integration tests for the crash-safe campaign layer: LRU
//! bit-transparency under property-based thrashing, torn-journal
//! recovery, and kill-and-resume byte-identity — the contracts
//! `repro --all --journal --resume` ships on.

use std::sync::Arc;
use std::time::Duration;

use a64fx_apps::nekbone::NekboneConfig;
use a64fx_core::campaign::{self, CampaignConfig, CampaignEnd};
use a64fx_core::report::Table;
use a64fx_core::runner::RunConfig;
use a64fx_core::tracecache::TraceCache;
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "a64fx-itest-campaign-{name}-{}",
        std::process::id()
    ))
}

fn demo_table(id: &str) -> Table {
    let mut t = Table::new(&id.to_ascii_uppercase(), "itest probe", &["k", "v"]);
    t.push_row(vec![id.to_string(), format!("v-{id}")]);
    t.note("integration probe with \"quotes\" and\nnewlines");
    t
}

fn demo_body() -> Arc<dyn Fn(&str) -> Table + Send + Sync> {
    Arc::new(|id: &str| demo_table(id))
}

/// `threads` workers, a 30 s deadline, no retry.
fn workers(threads: usize) -> CampaignConfig {
    CampaignConfig::new(RunConfig {
        threads,
        deadline: Duration::from_secs(30),
        ..RunConfig::default()
    })
}

const IDS: [&str; 5] = ["i1", "i2", "i3", "i4", "i5"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any access sequence against a cache capped to ~1 trace must serve
    // traces bit-equal (fingerprint and payload) to direct builds, no
    // matter how it thrashes.
    #[test]
    fn lru_eviction_is_bit_transparent_under_any_access_pattern(
        accesses in proptest::collection::vec(0usize..4, 1..24),
    ) {
        let configs: Vec<NekboneConfig> = (0..4)
            .map(|i| NekboneConfig { elements_per_rank: 61 + 2 * i, poly: 5, iterations: 2 })
            .collect();
        let ranks = 3;
        let reference: Vec<_> = configs
            .iter()
            .map(|c| a64fx_apps::nekbone::trace(*c, ranks))
            .collect();
        let cache = TraceCache::new(reference[0].approx_bytes() + 16, None);
        for &i in &accesses {
            let c = configs[i];
            let got = cache.fetch(&c, ranks, || a64fx_apps::nekbone::trace(c, ranks));
            prop_assert_eq!(&*got, &reference[i], "access to config {} served wrong bytes", i);
        }
        prop_assert!(
            cache.resident_bytes() <= reference[0].approx_bytes() + 16,
            "resident bytes exceed the cap"
        );
    }

    // A journal truncated at ANY byte resumes to the same final output.
    #[test]
    fn journal_truncated_anywhere_resumes_byte_identical(cut_frac in 0.0f64..1.0) {
        let path = tmp(&format!("anycut-{}", (cut_frac * 1e6) as u64));
        let cfg = workers(1);
        let clean = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false)
            .unwrap();
        let clean_merged = campaign::merged_json(&clean.outcomes);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true)
            .unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed.end, CampaignEnd::Completed);
        prop_assert_eq!(
            campaign::merged_json(&resumed.outcomes),
            clean_merged,
            "cut at byte {} of {} broke resume identity",
            cut,
            bytes.len()
        );
    }
}

/// Truncating inside the penultimate record drops exactly the torn
/// records and resume re-runs only those.
#[test]
fn truncated_mid_record_resumes_from_last_complete_record() {
    let path = tmp("midrecord");
    let cfg = workers(1);
    campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Cut 10 bytes into the 4th record: records 0..3 survive.
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    let cut = newlines[3] + 10; // header + 3 records end at newlines[3]
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let loaded = campaign::load_journal(&path, &IDS).expect("header intact");
    assert_eq!(loaded.records.len(), 3);
    let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
    assert_eq!(
        resumed.outcomes.iter().filter(|o| o.from_journal).count(),
        3,
        "exactly the three durable records replay"
    );
    assert_eq!(
        resumed.outcomes.iter().filter(|o| !o.from_journal).count(),
        2,
        "exactly the torn and never-run experiments re-run"
    );
    // The journal is whole again after the resumed campaign.
    assert_eq!(
        campaign::load_journal(&path, &IDS).unwrap().records.len(),
        IDS.len()
    );
    let _ = std::fs::remove_file(&path);
}

/// The flagship contract: kill after every possible record count, resume,
/// and demand byte-identical merged output and renders.
#[test]
fn kill_after_each_record_count_resumes_byte_identical() {
    let cfg = workers(1);
    let clean_path = tmp("kill-clean");
    let clean =
        campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&clean_path), false).unwrap();
    let _ = std::fs::remove_file(&clean_path);
    let clean_merged = campaign::merged_json(&clean.outcomes);
    let clean_renders: Vec<&String> = clean.outcomes.iter().map(|o| &o.render).collect();
    for stop_after in 1..IDS.len() as u64 {
        let path = tmp(&format!("kill-{stop_after}"));
        let kill_cfg = CampaignConfig {
            stop_after_records: Some(stop_after),
            ..cfg.clone()
        };
        let killed =
            campaign::run_campaign_with(&IDS, demo_body(), &kill_cfg, Some(&path), false).unwrap();
        assert_eq!(killed.end, CampaignEnd::Killed, "stop_after {stop_after}");
        let resumed =
            campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.end, CampaignEnd::Completed);
        assert_eq!(
            resumed.outcomes.iter().filter(|o| o.from_journal).count(),
            stop_after as usize
        );
        assert_eq!(
            campaign::merged_json(&resumed.outcomes),
            clean_merged,
            "merged JSON drifted after kill at {stop_after}"
        );
        let renders: Vec<&String> = resumed.outcomes.iter().map(|o| &o.render).collect();
        assert_eq!(
            renders, clean_renders,
            "renders drifted after kill at {stop_after}"
        );
    }
}

/// Campaign workers share one journal safely: a multi-worker campaign
/// journals every outcome and resumes cleanly.
#[test]
fn multi_worker_campaign_journals_every_outcome() {
    let path = tmp("workers");
    let cfg = workers(4);
    let result = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), false).unwrap();
    assert_eq!(result.outcomes.len(), IDS.len());
    assert_eq!(result.failed(), 0);
    let loaded = campaign::load_journal(&path, &IDS).unwrap();
    assert_eq!(loaded.records.len(), IDS.len());
    // Resume with nothing left to do replays everything.
    let resumed = campaign::run_campaign_with(&IDS, demo_body(), &cfg, Some(&path), true).unwrap();
    assert!(resumed.outcomes.iter().all(|o| o.from_journal));
    assert_eq!(
        campaign::merged_json(&resumed.outcomes),
        campaign::merged_json(&result.outcomes)
    );
    let _ = std::fs::remove_file(&path);
}
