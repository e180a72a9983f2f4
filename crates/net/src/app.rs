//! The production [`Handler`]: routes the three daemon endpoints onto
//! the existing serving stack.
//!
//! | route                   | answer                                           |
//! |-------------------------|--------------------------------------------------|
//! | `POST /v1/predict-batch`| [`WireResponse`] — forecasts + [`ServeJournal`]  |
//! | `GET /healthz`          | [`Healthz`] — breaker/monitor/server summary     |
//! | `GET /metrics`          | Prometheus text from the shared [`Registry`]     |
//!
//! Load-shed semantics: a batch whose every distinct vehicle has an
//! **open** circuit breaker is shed whole with `503 + Retry-After`
//! (serving it could only burn fallback fits); a partially-open batch
//! is served and the open vehicles degrade or fail individually inside
//! the journal. Queue-full shedding happens earlier, in the acceptor
//! ([`crate::server`]).
//!
//! The handler holds no lock around a batch. Workers call
//! [`PredictionService::serve_batch`] concurrently, and the service
//! admits each batch per vehicle: batches on disjoint vehicles run
//! side by side, batches that share a vehicle run in batch-index order,
//! so every outcome equals a serial run in index order — the property
//! the end-to-end equivalence tests pin (`DESIGN.md` §4.4).

use serde::{Deserialize, Serialize};
use vup_fleetsim::fleet::VehicleId;
use vup_obs::{FleetMonitor, Registry, Tracer};
use vup_serve::{BatchRequest, BreakerState, PredictionService, ServeJournal, ServeOutcome};

use crate::http::{Request, Response};
use crate::server::{Handler, StatusBoard};
use std::sync::Arc;

/// One prediction request on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBatchRequest {
    /// Vehicle to predict for.
    pub vehicle_id: u32,
    /// Scenario days ahead (≥ 1; 0 is answered as a skipped outcome).
    pub horizon: usize,
}

/// `POST /v1/predict-batch` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireRequest {
    /// The batch, answered in order.
    pub requests: Vec<WireBatchRequest>,
    /// Optional replay bound: serve as if only the first `as_of` slots
    /// of every series had been observed.
    pub as_of: Option<usize>,
}

/// One outcome on the wire: the forecast numbers plus a status tag;
/// the full decision trail lives in the journal record of the same
/// index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireOutcome {
    /// Vehicle the outcome is for.
    pub vehicle_id: u32,
    /// `served` / `retrained` / `degraded` / `skipped` / `failed`.
    pub status: String,
    /// Predicted utilization hours (empty for skipped/failed).
    pub hours: Vec<f64>,
    /// Slot the serving model was trained at (absent for skipped/failed).
    pub trained_at: Option<usize>,
    /// Skip reason / failure error / degradation cause.
    pub detail: Option<String>,
}

/// `POST /v1/predict-batch` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireResponse {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<WireOutcome>,
    /// The batch's provenance journal — identical to what
    /// `vup serve-batch --journal` writes for the same batch.
    pub journal: ServeJournal,
}

/// Monitor roll-up inside [`Healthz`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorSummary {
    /// Vehicles with monitor state.
    pub vehicles: usize,
    /// Vehicles with any flag raised.
    pub flagged: usize,
    /// Vehicles with latched CUSUM drift.
    pub drifted: usize,
    /// Vehicles whose recent error degraded past the ratio threshold.
    pub degraded: usize,
}

/// `GET /healthz` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Healthz {
    /// `"ok"` or `"draining"`.
    pub status: String,
    /// Connections admitted since boot.
    pub connections: u64,
    /// Connections shed at admission (queue full).
    pub shed: u64,
    /// Requests handled.
    pub requests: u64,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Vehicles whose circuit breaker is currently open.
    pub breaker_open: usize,
    /// Models resident in the (possibly durable) cache.
    pub models_cached: usize,
    /// Fleet-monitor roll-up.
    pub monitor: MonitorSummary,
}

/// Routes requests onto a [`PredictionService`] (see module docs).
pub struct AppHandler<'f> {
    service: PredictionService<'f>,
    registry: Registry,
    monitor: FleetMonitor,
    status: Arc<StatusBoard>,
    queue_capacity: usize,
    /// Largest accepted batch; larger bodies get 413.
    max_batch: usize,
    retry_after_secs: u32,
    /// Records one `net_request` span per handled request (disabled by
    /// default — serving stays clock-free unless tracing is wired in).
    tracer: Tracer,
}

impl<'f> AppHandler<'f> {
    /// Wires the handler onto an already-configured service. `registry`
    /// must be the one the service and server were built against — it
    /// backs `GET /metrics`.
    pub fn new(
        service: PredictionService<'f>,
        registry: Registry,
        monitor: FleetMonitor,
        status: Arc<StatusBoard>,
        queue_capacity: usize,
    ) -> AppHandler<'f> {
        AppHandler {
            service,
            registry,
            monitor,
            status,
            queue_capacity,
            max_batch: 1024,
            retry_after_secs: 1,
            tracer: Tracer::disabled(),
        }
    }

    /// Caps the number of requests accepted in one batch (default 1024).
    pub fn with_max_batch(mut self, max_batch: usize) -> AppHandler<'f> {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Attaches a tracer: every handled request records a `net_request`
    /// span (method, target, status, request/response bytes). The
    /// service's own `serve_batch` span tree shares the journal when the
    /// service was built against the same tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> AppHandler<'f> {
        self.tracer = tracer;
        self
    }

    /// The wrapped service (tests inspect the store/breaker through it).
    pub fn service(&self) -> &PredictionService<'f> {
        &self.service
    }

    fn predict_batch(&self, request: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body is not valid UTF-8");
        };
        let wire: WireRequest = match serde_json::from_str(body) {
            Ok(wire) => wire,
            Err(e) => return Response::error(400, &format!("invalid predict-batch body: {e}")),
        };
        if wire.requests.is_empty() {
            return Response::error(400, "predict-batch body has no requests");
        }
        if wire.requests.len() > self.max_batch {
            return Response::error(
                413,
                &format!(
                    "batch of {} exceeds the {}-request limit",
                    wire.requests.len(),
                    self.max_batch
                ),
            );
        }

        // Breaker shed: when *every* distinct vehicle in the batch sits
        // behind an open breaker, serving could only produce shed work;
        // tell the client to come back after the cooldown instead.
        let breaker = self.service.breaker();
        if breaker.config().enabled() {
            let all_open = wire
                .requests
                .iter()
                .all(|r| breaker.state(r.vehicle_id) == BreakerState::Open);
            if all_open {
                return Response::shed(
                    "circuit breaker open for every requested vehicle; retry after cooldown",
                    self.retry_after_secs,
                );
            }
        }

        let requests: Vec<BatchRequest> = wire
            .requests
            .iter()
            .map(|r| BatchRequest {
                vehicle_id: VehicleId(r.vehicle_id),
                horizon: r.horizon,
            })
            .collect();
        let outcomes = self.service.serve_batch(&requests, wire.as_of);
        let journal = ServeJournal::from_outcomes(&outcomes)
            .with_recovery(self.service.store().recovery().cloned());
        let wire_outcomes: Vec<WireOutcome> = outcomes.iter().map(wire_outcome).collect();
        let response = WireResponse {
            outcomes: wire_outcomes,
            journal,
        };
        match serde_json::to_string_pretty(&response) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("response serialization failed: {e}")),
        }
    }

    fn healthz(&self) -> Response {
        let health = self.monitor.health();
        let summary = self.status.summary();
        let draining = self
            .status
            .draining
            .load(std::sync::atomic::Ordering::Relaxed);
        let body = Healthz {
            status: if draining { "draining" } else { "ok" }.to_string(),
            connections: summary.accepted,
            shed: summary.shed,
            requests: summary.requests,
            queue_capacity: self.queue_capacity,
            breaker_open: self.service.breaker().open_count(),
            models_cached: self.service.store().len(),
            monitor: MonitorSummary {
                vehicles: health.len(),
                flagged: health.iter().filter(|h| h.flagged()).count(),
                drifted: health.iter().filter(|h| h.drifted).count(),
                degraded: health.iter().filter(|h| h.degraded).count(),
            },
        };
        match serde_json::to_string_pretty(&body) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(500, &format!("healthz serialization failed: {e}")),
        }
    }

    fn metrics(&self) -> Response {
        // Tracer health rides along on every scrape: the dropped-span
        // counter and ring watermark are refreshed right before the
        // snapshot renders, so silent span loss shows up in /metrics.
        self.tracer.publish_metrics(&self.registry);
        Response::with_body(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            self.registry.snapshot().to_prometheus_text().into_bytes(),
        )
    }
}

/// Flattens a [`ServeOutcome`] onto the wire shape.
fn wire_outcome(outcome: &ServeOutcome) -> WireOutcome {
    match outcome {
        ServeOutcome::Served(f) => WireOutcome {
            vehicle_id: f.vehicle_id,
            status: "served".to_string(),
            hours: f.hours.clone(),
            trained_at: Some(f.trained_at),
            detail: None,
        },
        ServeOutcome::RetrainedThenServed(f) => WireOutcome {
            vehicle_id: f.vehicle_id,
            status: "retrained".to_string(),
            hours: f.hours.clone(),
            trained_at: Some(f.trained_at),
            detail: None,
        },
        ServeOutcome::Degraded(f) => WireOutcome {
            vehicle_id: f.vehicle_id,
            status: "degraded".to_string(),
            hours: f.hours.clone(),
            trained_at: Some(f.trained_at),
            detail: f.provenance.reason.clone(),
        },
        ServeOutcome::Skipped {
            vehicle_id, reason, ..
        } => WireOutcome {
            vehicle_id: *vehicle_id,
            status: "skipped".to_string(),
            hours: Vec::new(),
            trained_at: None,
            detail: Some(reason.clone()),
        },
        ServeOutcome::Failed {
            vehicle_id, error, ..
        } => WireOutcome {
            vehicle_id: *vehicle_id,
            status: "failed".to_string(),
            hours: Vec::new(),
            trained_at: None,
            detail: Some(error.clone()),
        },
    }
}

impl<'f> Handler for AppHandler<'f> {
    fn handle(&self, request: &Request) -> Response {
        let mut span = self.tracer.root("net_request");
        span.arg("method", &request.method);
        span.arg("target", &request.target);
        span.add_bytes(request.body.len() as u64);
        let response = match (request.method.as_str(), request.target.as_str()) {
            ("POST", "/v1/predict-batch") => self.predict_batch(request),
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => self.metrics(),
            (_, "/v1/predict-batch") => {
                Response::error(405, "predict-batch accepts POST only").header("Allow", "POST")
            }
            (_, "/healthz") | (_, "/metrics") => {
                Response::error(405, "endpoint accepts GET only").header("Allow", "GET")
            }
            (_, target) => Response::error(404, &format!("no route for '{target}'")),
        };
        span.arg("status", response.status);
        span.add_bytes(response.body.len() as u64);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::{ModelSpec, PipelineConfig};
    use vup_fleetsim::{Fleet, FleetConfig};
    use vup_ml::RegressorSpec;
    use vup_obs::MonitorConfig;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Learned(RegressorSpec::Linear),
            train_window: 120,
            max_lag: 30,
            k: 10,
            retrain_every: 7,
            ..PipelineConfig::default()
        }
    }

    fn handler(fleet: &Fleet) -> AppHandler<'_> {
        let registry = Registry::new();
        let service = PredictionService::new_observed(fleet, fast_config(), 1, &registry).unwrap();
        let monitor = FleetMonitor::new(MonitorConfig::default());
        AppHandler::new(
            service,
            registry,
            monitor,
            Arc::new(StatusBoard::default()),
            8,
        )
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: target.to_string(),
            version: crate::http::Version::Http11,
            headers: vec![("content-length".to_string(), body.len().to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            version: crate::http::Version::Http11,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn predict_batch_round_trips_and_matches_direct_service_call() {
        let fleet = Fleet::generate(FleetConfig::small(3, 7));
        let app = handler(&fleet);
        let body = r#"{"requests":[{"vehicle_id":0,"horizon":2},{"vehicle_id":1,"horizon":1}],"as_of":null}"#;
        let response = app.handle(&post("/v1/predict-batch", body));
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let wire: WireResponse =
            serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(wire.outcomes.len(), 2);
        assert_eq!(wire.journal.records.len(), 2);
        assert_eq!(wire.outcomes[0].status, "retrained");
        assert_eq!(wire.outcomes[0].hours.len(), 2);

        // The same batch again: cache hits with bit-identical numbers.
        let again = app.handle(&post("/v1/predict-batch", body));
        let wire2: WireResponse =
            serde_json::from_str(&String::from_utf8(again.body).unwrap()).unwrap();
        assert_eq!(wire2.outcomes[0].status, "served");
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&wire.outcomes[0].hours),
            bits(&wire2.outcomes[0].hours)
        );
    }

    #[test]
    fn bad_bodies_get_structured_400s() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let app = handler(&fleet);
        for body in ["", "{", "[]", r#"{"requests":[]}"#, r#"{"unknown":1}"#] {
            let response = app.handle(&post("/v1/predict-batch", body));
            assert_eq!(response.status, 400, "body {body:?}");
            assert!(
                String::from_utf8_lossy(&response.body).contains("error"),
                "body {body:?}"
            );
        }
    }

    #[test]
    fn oversized_batches_get_413() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let app = handler(&fleet).with_max_batch(2);
        let body = r#"{"requests":[{"vehicle_id":0,"horizon":1},{"vehicle_id":1,"horizon":1},{"vehicle_id":0,"horizon":2}]}"#;
        let response = app.handle(&post("/v1/predict-batch", body));
        assert_eq!(response.status, 413);
    }

    #[test]
    fn healthz_reports_ok_and_counts() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let app = handler(&fleet);
        let response = app.handle(&get("/healthz"));
        assert_eq!(response.status, 200);
        let health: Healthz =
            serde_json::from_str(&String::from_utf8(response.body).unwrap()).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.queue_capacity, 8);
        assert_eq!(health.breaker_open, 0);
    }

    #[test]
    fn metrics_exports_prometheus_text() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let app = handler(&fleet);
        app.handle(&post(
            "/v1/predict-batch",
            r#"{"requests":[{"vehicle_id":0,"horizon":1}]}"#,
        ));
        let response = app.handle(&get("/metrics"));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("vup_serve_batches_total"), "{text}");
        vup_obs::parse_prometheus_text(&text).expect("strict parse");
    }

    #[test]
    fn requests_record_net_request_spans() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let tracer = Tracer::new();
        let app = handler(&fleet).with_tracer(tracer.clone());
        app.handle(&get("/healthz"));
        app.handle(&get("/nope"));
        let snapshot = tracer.snapshot();
        let spans: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.name == "net_request")
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].args.contains(&("target", "/healthz".to_string())));
        assert!(spans[0].args.contains(&("status", "200".to_string())));
        assert!(spans[0].bytes > 0, "response bytes counted");
        assert!(spans[1].args.contains(&("status", "404".to_string())));

        // /metrics surfaces the tracer health counters.
        let response = app.handle(&get("/metrics"));
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("vup_trace_dropped_total 0"), "{text}");
        assert!(text.contains("vup_trace_ring_capacity"), "{text}");
    }

    #[test]
    fn unknown_routes_and_wrong_methods() {
        let fleet = Fleet::generate(FleetConfig::small(2, 7));
        let app = handler(&fleet);
        assert_eq!(app.handle(&get("/nope")).status, 404);
        assert_eq!(app.handle(&get("/v1/predict-batch")).status, 405);
        assert_eq!(app.handle(&post("/metrics", "x")).status, 405);
    }
}
