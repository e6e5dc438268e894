//! End-to-end checks for the live-monitoring layer: a monitored campaign
//! publishes exactly the counts its final report contains, and the HTTP
//! endpoint serves them in scrape-consistent form.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use div_sim::{
    run_campaign_hooked, CampaignConfig, CampaignError, CampaignHooks, CampaignMonitor,
    CampaignReport, MetricsServer, TrialCtx, TrialOutcome,
};

/// A scalar campaign publishing into `monitor`.
fn run_campaign_monitored<F>(
    cfg: &CampaignConfig,
    monitor: Option<&CampaignMonitor>,
    trial_fn: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn(&TrialCtx) -> TrialOutcome + Sync,
{
    let hooks = CampaignHooks {
        monitor,
        ..CampaignHooks::default()
    };
    run_campaign_hooked(cfg, hooks, trial_fn)
}

/// A deterministic mixed-outcome trial function: converges on most seeds,
/// times out or sticks at two adjacent opinions on others, and panics
/// (once, then succeeds on retry) on one specific trial.
fn mixed_trial(ctx: &div_sim::TrialCtx) -> TrialOutcome {
    if ctx.trial == 7 && ctx.attempt == 0 {
        panic!("injected first-attempt failure");
    }
    match ctx.trial % 5 {
        0..=2 => TrialOutcome::Converged {
            winner: 3,
            steps: 100 + ctx.trial as u64,
        },
        3 => TrialOutcome::TwoAdjacent {
            low: 2,
            high: 3,
            steps: 500,
        },
        _ => TrialOutcome::Timeout { steps: 1000 },
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    response
        .split_once("\r\n\r\n")
        .expect("header separator")
        .1
        .to_string()
}

#[test]
fn final_snapshot_agrees_exactly_with_the_campaign_report() {
    let mut cfg = CampaignConfig::new(40, 0xC0FFEE);
    cfg.threads = 4;
    let monitor = CampaignMonitor::new();
    let report = run_campaign_monitored(&cfg, Some(&monitor), mixed_trial).expect("campaign runs");

    let snapshot = monitor.snapshot();
    assert_eq!(snapshot.expected, 40);
    assert_eq!(snapshot.started, 40);
    assert_eq!(snapshot.finished, 40);
    assert_eq!(snapshot.retries, 1, "trial 7 retried exactly once");

    // The acceptance bar: scrape counts equal the report's outcome
    // taxonomy exactly.
    let mut conv = 0u64;
    let mut two = 0u64;
    let mut timeout = 0u64;
    let mut panicked = 0u64;
    let mut steps = 0u64;
    for outcome in report.outcomes.values() {
        match outcome {
            TrialOutcome::Converged { .. } => conv += 1,
            TrialOutcome::TwoAdjacent { .. } => two += 1,
            TrialOutcome::Timeout { .. } => timeout += 1,
            TrialOutcome::Panicked { .. } => panicked += 1,
        }
        steps += outcome.steps();
    }
    assert_eq!(snapshot.converged, conv);
    assert_eq!(snapshot.two_adjacent, two);
    assert_eq!(snapshot.timeout, timeout);
    assert_eq!(snapshot.panicked, panicked);
    assert_eq!(snapshot.steps_total, steps);
    assert_eq!(
        snapshot.phase_consensus.count, conv,
        "every converged trial lands in the consensus histogram"
    );

    // And the same counts surface verbatim in a rendered scrape.
    let text = snapshot.render_prometheus();
    for (label, v) in snapshot.outcomes() {
        assert!(
            text.contains(&format!("div_trials_total{{outcome=\"{label}\"}} {v}")),
            "missing {label}={v} in scrape:\n{text}"
        );
    }
}

#[test]
fn resumed_outcomes_are_replayed_into_the_monitor() {
    let dir = std::env::temp_dir().join(format!("div-monitor-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let manifest = dir.join("manifest.txt");
    let mut cfg_first = CampaignConfig::new(20, 99);
    cfg_first.threads = 2;
    cfg_first.checkpoint = Some(manifest.clone());
    cfg_first.stop_after = Some(12);
    run_campaign_monitored(&cfg_first, None, mixed_trial).expect("partial campaign");

    let mut cfg_resume = cfg_first.clone();
    cfg_resume.resume = true;
    cfg_resume.stop_after = None;
    let monitor = CampaignMonitor::new();
    let report =
        run_campaign_monitored(&cfg_resume, Some(&monitor), mixed_trial).expect("resume campaign");
    assert_eq!(report.resumed, 12);
    let snapshot = monitor.snapshot();
    assert_eq!(
        snapshot.finished, 20,
        "resumed outcomes count as finished trials"
    );
    assert_eq!(snapshot.started, 20);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_scrape_during_a_campaign_and_exact_final_scrape() {
    let monitor = Arc::new(CampaignMonitor::new());
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&monitor)).expect("bind");
    let addr = server.local_addr();

    let mut cfg = CampaignConfig::new(30, 5);
    cfg.threads = 2;
    let report = std::thread::scope(|scope| {
        let campaign_monitor = Arc::clone(&monitor);
        let handle = scope.spawn(move || {
            run_campaign_monitored(&cfg, Some(&campaign_monitor), |ctx| {
                // Slow the trials slightly so mid-flight scrapes happen.
                std::thread::sleep(std::time::Duration::from_millis(1));
                mixed_trial(ctx)
            })
        });
        // Scrape while the campaign runs: consistency, not completeness.
        for _ in 0..5 {
            let body = http_get(addr, "/progress");
            let field = |key: &str| -> u64 {
                let at = body.find(key).expect("field") + key.len();
                body[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .expect("number")
            };
            assert!(field("\"finished\":") <= field("\"started\":"), "{body}");
            assert!(field("\"started\":") <= 30, "{body}");
        }
        handle.join().expect("campaign thread").expect("campaign")
    });

    // After the campaign returns, the scrape equals the report exactly.
    let text = http_get(addr, "/metrics");
    let conv = report
        .outcomes
        .values()
        .filter(|o| o.is_converged())
        .count();
    assert!(
        text.contains(&format!("div_trials_total{{outcome=\"converged\"}} {conv}")),
        "scrape disagrees with report:\n{text}"
    );
    assert!(text.contains("div_trials_finished_total 30"), "{text}");
    server.shutdown();
}
