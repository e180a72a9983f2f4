//! End-to-end tests for the `vup serve` daemon: the network path must
//! produce journals bit-identical to the CLI `serve-batch` path
//! (`DESIGN.md` §4's determinism boundary), the auxiliary endpoints
//! must answer well-formed payloads, and SIGTERM must drain cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::Duration;

use vehicle_usage_prediction::net::http::read_response;
use vehicle_usage_prediction::net::{Healthz, WireResponse};
use vehicle_usage_prediction::obs::parse_prometheus_text;
use vehicle_usage_prediction::serve::{ServeJournal, ServePath};

fn vup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vup"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A running daemon that is SIGKILLed on drop so a failing test never
/// leaks a listener.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: BufReader<std::process::ChildStderr>,
}

impl Daemon {
    /// Boots `vup serve` with the given extra flags and scrapes the
    /// bound address from the stable `listening on` stderr line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = vup()
            .arg("serve")
            .args(["--vehicles", "6", "--seed", "7", "--model", "linear"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn vup serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stderr.read_line(&mut line).expect("read daemon stderr");
            assert!(n > 0, "daemon exited before announcing its address");
            if let Some(rest) = line.split("listening on ").nth(1) {
                let token = rest.split_whitespace().next().expect("address token");
                break token.parse().expect("parse bound address");
            }
        };
        Daemon {
            child,
            addr,
            stderr,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    fn request(&self, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
        let mut stream = self.connect();
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes()).expect("write head");
        if let Some(body) = body {
            stream.write_all(body.as_bytes()).expect("write body");
        }
        let response = read_response(&mut stream).expect("read response");
        (response.status, response.body_text())
    }

    /// SIGTERM, then wait for a clean exit and return all of stderr.
    fn terminate(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let exit = self.child.wait().expect("wait for daemon");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stderr, &mut rest).expect("drain stderr");
        assert!(exit.success(), "daemon exited {exit:?}; stderr:\n{rest}");
        // Forget the child so Drop does not re-kill a reaped pid.
        std::mem::forget(self);
        rest
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const BATCH_BODY: &str = r#"{"requests":[{"vehicle_id":0,"horizon":2},{"vehicle_id":1,"horizon":2},{"vehicle_id":2,"horizon":2}],"as_of":null}"#;

/// The CLI run the daemon must agree with: same fleet, same store, same
/// batch. Returns the journal it wrote.
fn cli_reference_journal(store: &std::path::Path, journal: &std::path::Path) -> ServeJournal {
    let store = store.display().to_string();
    cli_journal(
        &[
            "--ids",
            "0,1,2",
            "--horizon",
            "2",
            "--repeat",
            "1",
            "--store-dir",
            &store,
        ],
        journal,
    )
}

/// Runs `vup serve-batch` on the daemon's fleet and model with `args`,
/// and returns the journal of its last batch, written to `journal`.
fn cli_journal(args: &[&str], journal: &std::path::Path) -> ServeJournal {
    let output = vup()
        .args(["serve-batch", "--vehicles", "6", "--seed", "7"])
        .args(["--model", "linear"])
        .args(args)
        .args(["--journal", &journal.display().to_string()])
        .output()
        .expect("run serve-batch");
    assert!(
        output.status.success(),
        "serve-batch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(journal).expect("read journal");
    ServeJournal::from_json(&text).expect("parse journal")
}

#[test]
fn daemon_journal_is_bit_identical_to_the_cli_path_across_thread_counts() {
    let store = temp_dir("equiv");
    let journal_path = store.join("reference.journal.json");

    // Warm the store (first run retrains 0,1,2 and persists them), then
    // capture the reference journal of a warm CLI run.
    cli_reference_journal(&store, &journal_path);
    let reference = cli_reference_journal(&store, &journal_path);
    assert!(
        reference
            .records
            .iter()
            .all(|r| r.path == ServePath::CacheHit),
        "warm reference run should serve from the store: {:?}",
        reference.records.iter().map(|r| r.path).collect::<Vec<_>>()
    );

    let mut hours_by_threads: Vec<Vec<u64>> = Vec::new();
    for threads in ["1", "2", "4"] {
        let daemon = Daemon::spawn(&[
            "--threads",
            threads,
            "--workers",
            "2",
            "--store-dir",
            &store.display().to_string(),
        ]);
        let (status, body) = daemon.request("POST", "/v1/predict-batch", Some(BATCH_BODY));
        assert_eq!(status, 200, "daemon POST failed: {body}");
        let wire: WireResponse = serde_json::from_str(&body).expect("parse wire response");

        // Outcome + provenance records must match the CLI journal
        // exactly (Provenance's PartialEq already ignores wall-clock
        // stage timings; store generation differs per process and is
        // compared separately).
        assert_eq!(
            wire.journal.records, reference.records,
            "daemon journal diverged from the CLI path at --threads {threads}"
        );
        hours_by_threads.push(
            wire.outcomes
                .iter()
                .flat_map(|o| o.hours.iter().map(|h| h.to_bits()))
                .collect(),
        );
        daemon.terminate();
    }
    // Forecast numbers are bit-identical across executor widths.
    assert!(!hours_by_threads[0].is_empty());
    assert!(
        hours_by_threads.windows(2).all(|w| w[0] == w[1]),
        "forecasts must not depend on the thread count"
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// Batches on disjoint vehicles run side by side in the daemon, and
/// each client still sees exactly what a serial CLI run of its own
/// request sequence journals: batch `k` of a client equals the last
/// batch of `serve-batch --repeat k`.
#[test]
fn concurrent_keep_alive_clients_on_disjoint_vehicles_match_their_cli_runs() {
    const ROUNDS: usize = 3;
    let clients: [(&str, usize); 2] = [("0,1", 2), ("2,3,4", 1)];
    let daemon = Daemon::spawn(&["--threads", "2", "--workers", "2", "--queue", "8"]);
    let barrier = Barrier::new(clients.len());
    let journals: Vec<Vec<ServeJournal>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|&(ids, horizon)| {
                let mut stream = daemon.connect();
                let barrier = &barrier;
                scope.spawn(move || {
                    let requests: Vec<String> = ids
                        .split(',')
                        .map(|id| format!(r#"{{"vehicle_id":{id},"horizon":{horizon}}}"#))
                        .collect();
                    let body = format!(r#"{{"requests":[{}],"as_of":null}}"#, requests.join(","));
                    let request = format!(
                        "POST /v1/predict-batch HTTP/1.1\r\nHost: t\r\n\
                         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    barrier.wait();
                    (0..ROUNDS)
                        .map(|round| {
                            stream.write_all(request.as_bytes()).expect("write request");
                            let response = read_response(&mut stream).expect("read response");
                            let text = response.body_text();
                            assert_eq!(response.status, 200, "client {ids} round {round}: {text}");
                            let wire: WireResponse =
                                serde_json::from_str(&text).expect("parse wire response");
                            wire.journal
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread"))
            .collect()
    });
    daemon.terminate();

    let dir = temp_dir("concurrent");
    let journal_path = dir.join("reference.journal.json");
    for (&(ids, horizon), journals) in clients.iter().zip(&journals) {
        let horizon = horizon.to_string();
        for (round, journal) in journals.iter().enumerate() {
            let repeat = (round + 1).to_string();
            let args = ["--ids", ids, "--horizon", &horizon, "--repeat", &repeat];
            let reference = cli_journal(&args, &journal_path);
            assert_eq!(
                journal.records, reference.records,
                "client {ids}: batch {repeat} diverged from its serial CLI run"
            );
            let expected = if round == 0 {
                ServePath::RetrainedAbsent
            } else {
                ServePath::CacheHit
            };
            assert!(
                journal.records.iter().all(|r| r.path == expected),
                "client {ids} batch {repeat}: {:?}",
                journal.records.iter().map(|r| r.path).collect::<Vec<_>>()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_metrics_and_sigterm_drain() {
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "8"]);

    // One real batch so the meters move.
    let (status, _) = daemon.request("POST", "/v1/predict-batch", Some(BATCH_BODY));
    assert_eq!(status, 200);

    let (status, body) = daemon.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    let health: Healthz = serde_json::from_str(&body).expect("parse healthz");
    assert_eq!(health.status, "ok");
    assert_eq!(health.queue_capacity, 8);
    assert!(health.requests >= 1);
    assert_eq!(health.models_cached, 3, "batch trained vehicles 0,1,2");

    let (status, text) = daemon.request("GET", "/metrics", None);
    assert_eq!(status, 200);
    let samples = parse_prometheus_text(&text).expect("metrics must strict-parse");
    assert!(!samples.is_empty());
    assert!(text.contains("vup_net_requests_total"), "{text}");
    assert!(text.contains("vup_serve_batches_total"), "{text}");

    // Unknown routes and protocol errors answer structured JSON.
    let (status, body) = daemon.request("GET", "/nope", None);
    assert_eq!(status, 404);
    assert!(body.contains("error"));
    let (status, _) = daemon.request("PUT", "/healthz", Some(""));
    assert_eq!(status, 405);
    let (status, _) = daemon.request("PUT", "/healthz", None);
    assert_eq!(status, 411, "bodyless PUT is rejected at the parser");

    let stderr = daemon.terminate();
    assert!(
        stderr.contains("drained:"),
        "SIGTERM must report a drain summary, got:\n{stderr}"
    );
}

/// Satellite of the profiling layer: the full metrics pipeline, end to
/// end. Scrape a live daemon's `/metrics`, strict-parse the export, and
/// assert every registered metric family carries `# HELP` and `# TYPE`
/// lines and parseable samples — so a metric added anywhere in the
/// stack without its describe() shows up here, not in a dashboard.
#[test]
fn metrics_pipeline_exports_help_and_type_for_every_family() {
    let daemon = Daemon::spawn(&["--workers", "2", "--queue", "8"]);

    // Drive real traffic through predict, healthz, and an error route so
    // request/outcome counters all have samples.
    let (status, _) = daemon.request("POST", "/v1/predict-batch", Some(BATCH_BODY));
    assert_eq!(status, 200);
    let (status, _) = daemon.request("GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, _) = daemon.request("GET", "/nope", None);
    assert_eq!(status, 404);

    let (status, text) = daemon.request("GET", "/metrics", None);
    assert_eq!(status, 200);

    // Every sample must strict-parse...
    let samples = parse_prometheus_text(&text).expect("metrics must strict-parse");
    assert!(!samples.is_empty());
    for sample in &samples {
        assert!(sample.value.is_finite() || sample.value.is_infinite());
        assert!(
            sample.name.starts_with("vup_"),
            "foreign family: {}",
            sample.name
        );
    }

    // ...and every family must be described. Histogram series roll up to
    // their base family name for HELP/TYPE lookup.
    let mut help = std::collections::HashSet::new();
    let mut types = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help.insert(rest.split(' ').next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            types.insert(rest.split(' ').next().unwrap().to_string());
        }
    }
    let base = |name: &str| {
        name.strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name)
            .to_string()
    };
    for sample in &samples {
        let family = base(&sample.name);
        assert!(
            help.contains(&family) || help.contains(&sample.name),
            "family '{family}' exported without # HELP"
        );
        assert!(
            types.contains(&family) || types.contains(&sample.name),
            "family '{family}' exported without # TYPE"
        );
    }

    // The trace-health metrics ride along even though the daemon's
    // tracer is disabled: dashboards keep the series, pinned at zero.
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .value
    };
    assert_eq!(value("vup_trace_dropped_total"), 0.0);
    assert_eq!(value("vup_trace_ring_high_watermark"), 0.0);
    assert_eq!(value("vup_trace_ring_capacity"), 0.0);

    daemon.terminate();
}
