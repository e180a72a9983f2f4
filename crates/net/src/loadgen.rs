//! Seeded closed-loop load generator for `vup serve`.
//!
//! N client threads each run a closed loop — build a batch, POST it,
//! wait for the answer, repeat — against a running daemon. The *request
//! stream* is a pure function of `(seed, client, iteration)` via
//! splitmix64, so two runs against equivalent servers issue identical
//! batches; wall-clock results (RPS, latencies) are of course
//! machine-dependent. Results land in a [`BenchReport`]: one run's
//! record (`vup loadgen` writes `loadgen-report.json` by default), not
//! a `vup bench` trajectory.
//!
//! The harness doubles as the overload driver for CI: point it at a
//! server with a tiny admission queue and it records how many requests
//! were deliberately shed (`503 + Retry-After`) versus served.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::app::{WireBatchRequest, WireRequest};
use crate::http::read_response;

/// What to drive at the server.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPlan {
    /// Target address, `host:port`.
    pub addr: String,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests per client (ignored when `duration_ms` is set).
    pub requests_per_client: usize,
    /// Run for this long instead of a fixed request count.
    pub duration_ms: Option<u64>,
    /// Vehicles per predict-batch request.
    pub batch_size: usize,
    /// Vehicle ids are drawn from `0..vehicle_pool`.
    pub vehicle_pool: u32,
    /// Horizon of every request.
    pub horizon: usize,
    /// Stream seed: same seed, same request sequence.
    pub seed: u64,
}

impl Default for LoadPlan {
    fn default() -> LoadPlan {
        LoadPlan {
            addr: "127.0.0.1:0".to_string(),
            clients: 4,
            requests_per_client: 50,
            duration_ms: None,
            batch_size: 4,
            vehicle_pool: 50,
            horizon: 3,
            seed: 7,
        }
    }
}

/// Latency digest in microseconds (exact, from the merged sample set).
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyUs {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Slowest observed request.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
}

/// One bucket of the latency histogram (`le` in microseconds).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyBucket {
    /// Upper bound of the bucket, µs (`u64::MAX` = +Inf).
    pub le_us: u64,
    /// Cumulative count of requests at or under the bound.
    pub count: u64,
}

/// One load-generation run's record (`vup loadgen --out`).
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// The plan that was run (seed included, for reproduction).
    pub plan: LoadPlan,
    /// Wall-clock run time, milliseconds.
    pub wall_ms: u64,
    /// Requests issued.
    pub total: u64,
    /// `200` responses.
    pub ok: u64,
    /// `503` shed responses (deliberate backpressure).
    pub shed: u64,
    /// Other HTTP statuses.
    pub http_errors: u64,
    /// Transport failures (connect/read/write).
    pub io_errors: u64,
    /// `ok / wall` — sustained successful request rate.
    pub sustained_rps: f64,
    /// Latency digest over successful requests.
    pub latency_us: LatencyUs,
    /// Cumulative latency histogram over successful requests.
    pub histogram: Vec<LatencyBucket>,
    /// Samples in the server's final `/metrics` export (strict-parsed;
    /// the run fails if the exporter emits unparseable text).
    pub metrics_samples: usize,
}

impl BenchReport {
    /// Pretty JSON, as `vup loadgen` writes it.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The batch client `client` issues on iteration `iteration` — a pure
/// function of the plan.
pub fn planned_batch(plan: &LoadPlan, client: u64, iteration: u64) -> WireRequest {
    let requests = (0..plan.batch_size as u64)
        .map(|slot| {
            let roll =
                splitmix64(plan.seed ^ client.rotate_left(17) ^ iteration.rotate_left(33) ^ slot);
            WireBatchRequest {
                vehicle_id: (roll % u64::from(plan.vehicle_pool.max(1))) as u32,
                horizon: plan.horizon,
            }
        })
        .collect();
    WireRequest {
        requests,
        as_of: None,
    }
}

struct ClientTally {
    ok: u64,
    shed: u64,
    http_errors: u64,
    io_errors: u64,
    latencies_ns: Vec<u64>,
}

/// One POST over an existing connection; returns the status and
/// whether the connection survives for the next iteration.
fn post_batch(stream: &mut TcpStream, addr: &str, body: &str) -> io::Result<(u16, bool)> {
    let head = format!(
        "POST /v1/predict-batch HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let response = read_response(stream)?;
    Ok((response.status, response.keep_alive()))
}

fn client_loop(plan: &LoadPlan, client: u64, deadline: Option<Instant>) -> ClientTally {
    let mut tally = ClientTally {
        ok: 0,
        shed: 0,
        http_errors: 0,
        io_errors: 0,
        latencies_ns: Vec::new(),
    };
    let connect = || -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&plan.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    };
    let mut stream: Option<TcpStream> = None;
    let mut iteration: u64 = 0;
    loop {
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                if iteration >= plan.requests_per_client as u64 {
                    break;
                }
            }
        }
        let body = serde_json::to_string(&planned_batch(plan, client, iteration))
            .expect("wire request serializes");
        iteration += 1;
        // (Re)connect lazily; a shed or closed connection reconnects on
        // the next iteration — closed-loop clients retry forever.
        let conn = match stream.take() {
            Some(conn) => conn,
            None => match connect() {
                Ok(conn) => conn,
                Err(_) => {
                    tally.io_errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let mut conn = conn;
        let start = Instant::now();
        match post_batch(&mut conn, &plan.addr, &body) {
            Ok((status, keep)) => {
                let nanos = start.elapsed().as_nanos() as u64;
                match status {
                    200 => {
                        tally.ok += 1;
                        tally.latencies_ns.push(nanos);
                    }
                    503 => tally.shed += 1,
                    _ => tally.http_errors += 1,
                }
                if keep {
                    stream = Some(conn);
                }
            }
            Err(_) => {
                tally.io_errors += 1;
            }
        }
    }
    tally
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Fetches and strict-parses the server's `/metrics`; returns the
/// sample count.
fn scrape_metrics(addr: &str) -> io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let response = read_response(&mut stream)?;
    if response.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("GET /metrics answered {}", response.status),
        ));
    }
    let samples = vup_obs::parse_prometheus_text(&response.body_text())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("metrics parse: {e}")))?;
    Ok(samples.len())
}

/// Runs the plan to completion and digests the results.
///
/// Errors only on harness-level failures (e.g. the final `/metrics`
/// scrape failing its strict parse); per-request failures are counted
/// in the report instead.
pub fn run(plan: &LoadPlan) -> io::Result<BenchReport> {
    let started = Instant::now();
    let deadline = plan
        .duration_ms
        .map(|ms| started + Duration::from_millis(ms));
    let issued = AtomicU64::new(0);
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients.max(1) as u64)
            .map(|client| {
                let issued = &issued;
                scope.spawn(move || {
                    let tally = client_loop(plan, client, deadline);
                    issued.fetch_add(
                        tally.ok + tally.shed + tally.http_errors + tally.io_errors,
                        Ordering::Relaxed,
                    );
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let sum: u128 = latencies.iter().map(|&n| u128::from(n)).sum();
    let to_us = |ns: u64| ns / 1_000;
    let latency_us = LatencyUs {
        p50: to_us(percentile(&latencies, 0.50)),
        p90: to_us(percentile(&latencies, 0.90)),
        p99: to_us(percentile(&latencies, 0.99)),
        max: to_us(latencies.last().copied().unwrap_or(0)),
        mean: to_us(if latencies.is_empty() {
            0
        } else {
            (sum / latencies.len() as u128) as u64
        }),
    };
    // Exponential µs bounds: 100µs … ~104s, then +Inf.
    let mut histogram = Vec::new();
    let mut bound_us: u64 = 100;
    for _ in 0..10 {
        let count = latencies.partition_point(|&ns| to_us(ns) <= bound_us) as u64;
        histogram.push(LatencyBucket {
            le_us: bound_us,
            count,
        });
        bound_us = bound_us.saturating_mul(4);
    }
    histogram.push(LatencyBucket {
        le_us: u64::MAX,
        count: latencies.len() as u64,
    });

    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let shed: u64 = tallies.iter().map(|t| t.shed).sum();
    let http_errors: u64 = tallies.iter().map(|t| t.http_errors).sum();
    let io_errors: u64 = tallies.iter().map(|t| t.io_errors).sum();
    let metrics_samples = scrape_metrics(&plan.addr)?;
    let wall_secs = wall.as_secs_f64().max(1e-9);
    Ok(BenchReport {
        plan: plan.clone(),
        wall_ms: wall.as_millis() as u64,
        total: ok + shed + http_errors + io_errors,
        ok,
        shed,
        http_errors,
        io_errors,
        sustained_rps: ok as f64 / wall_secs,
        latency_us,
        histogram,
        metrics_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_batches_are_seed_deterministic_and_in_range() {
        let plan = LoadPlan {
            vehicle_pool: 13,
            batch_size: 5,
            ..LoadPlan::default()
        };
        let a = planned_batch(&plan, 2, 9);
        let b = planned_batch(&plan, 2, 9);
        let ids = |w: &WireRequest| w.requests.iter().map(|r| r.vehicle_id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b), "same (seed, client, iteration)");
        assert!(a.requests.iter().all(|r| r.vehicle_id < 13));
        let c = planned_batch(&plan, 3, 9);
        assert_ne!(ids(&a), ids(&c), "clients draw distinct streams");
        let other = LoadPlan {
            seed: 8,
            ..plan.clone()
        };
        assert_ne!(
            ids(&a),
            ids(&planned_batch(&other, 2, 9)),
            "seed changes the stream"
        );
    }

    #[test]
    fn percentiles_on_small_sets() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[10], 0.99), 10);
        let sorted: Vec<u64> = (1..=100).collect();
        // Nearest-rank on the 0-based index: 0.5 * 99 rounds to 50.
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
    }

    #[test]
    fn bench_report_writes_every_field_as_json() {
        let report = BenchReport {
            plan: LoadPlan::default(),
            wall_ms: 5000,
            total: 100,
            ok: 90,
            shed: 8,
            http_errors: 1,
            io_errors: 1,
            sustained_rps: 18.0,
            latency_us: LatencyUs {
                p50: 900,
                p90: 2000,
                p99: 5000,
                max: 9000,
                mean: 1200,
            },
            histogram: vec![LatencyBucket {
                le_us: 100,
                count: 0,
            }],
            metrics_samples: 42,
        };
        let json = report.to_json();
        for field in [
            "\"ok\": 90",
            "\"shed\": 8",
            "\"p99\": 5000",
            "\"le_us\": 100",
            "\"metrics_samples\": 42",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(json.contains(&format!("\"seed\": {}", report.plan.seed)));
    }
}
