//! `serve`: the HTTP serving path, driven closed-loop.
//!
//! An in-process daemon (`Server` + `AppHandler`, two workers) serves the
//! paper's SVR configuration (`retrain_every` 7) from a durable
//! `ModelStore` in a fresh directory, with a live registry, as
//! `vup serve` runs. Two keep-alive connections, one client thread each,
//! send batches of eight vehicles. The eight vehicles of a batch share a
//! retrain phase: set-up primes each batch's models that many days
//! early, so as `as_of` advances one slot per simulated day about one
//! request in seven retrains and persists its eight models (the write
//! path) and the rest are cache hits (the read path). Both paths take
//! the handler's fleet-wide batch lock.
//!
//! One op and one latency sample are one `POST /v1/predict-batch`
//! round trip. Day 0 is a discarded warm-up. Each simulated day is one
//! host-clock stretch; its requests share that day's scale.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use vup_core::executor::CancelToken;
use vup_core::{PipelineConfig, Scenario, VehicleView};
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_net::http::{read_response, Request, Response};
use vup_net::{AppHandler, Handler, Server, ServerConfig, WireResponse};
use vup_obs::export::{parse_prometheus_text, ParsedSample};
use vup_obs::{FleetMonitor, MonitorConfig, Registry, Tracer};
use vup_serve::{
    BatchRequest, DiskBackend, FleetViews, ModelStore, PredictionService, ServeOutcome,
    StorageBackend, ViewSource,
};

use crate::measure::{ms, Acc, HostClock, Kernel, SplitMix, Timed, Total};
use crate::report::Phase;
use crate::seams::{IoStats, TimedBackend, WorkDir};

/// Seed of the fixed fleet; the workload seed shapes the traffic.
const FLEET_SEED: u64 = 2019;
/// Vehicles generated; the served ones are drawn from them.
const FLEET_SIZE: usize = 480;
/// Vehicles served.
const VEHICLES: usize = 200;
/// Vehicles per request.
const BATCH: usize = 8;
/// Slot the first simulated day serves `as_of`; set-up trains up to six
/// slots earlier, past the 140-slot training window.
const BASE_AS_OF: usize = 150;
/// Simulated days planned; a 30-second run ends near day 250, and the
/// fastest seen near day 350.
const PLAN_DAYS: usize = 480;
/// Longest horizon a request asks for.
const MAX_HORIZON: usize = 3;
/// Client connections (one client thread each) and server workers.
const CONNECTIONS: usize = 2;
/// Prediction executor threads. One keeps each batch on its worker
/// thread: with two, every batch spawns executor threads beside the two
/// workers and two clients on a two-core machine, and the runs spread
/// too widely to compare.
const EXECUTOR_THREADS: usize = 1;
/// Groups whose whole request sequence is replayed in process to check
/// the forecasts bit for bit.
const REPLAY_GROUPS: usize = 4;

/// `vup serve`'s default pipeline: the paper's SVR at `retrain_every` 7.
fn config() -> PipelineConfig {
    PipelineConfig::default()
}

/// A batch of vehicles that share a retrain phase and a connection.
struct Group {
    vehicles: Vec<u32>,
    horizons: Vec<usize>,
    /// Days before the first simulated day its models were trained.
    phase: usize,
    connection: usize,
}

impl Group {
    fn requests(&self) -> Vec<BatchRequest> {
        self.vehicles
            .iter()
            .zip(&self.horizons)
            .map(|(&id, &horizon)| BatchRequest {
                vehicle_id: VehicleId(id),
                horizon,
            })
            .collect()
    }

    /// Whether the request of simulated day `day` retrains: the models
    /// age one slot per day and go stale `retrain_every` slots after
    /// their last training.
    fn retrains_on(&self, day: usize, retrain_every: usize) -> bool {
        day > 0 && (day + self.phase).is_multiple_of(retrain_every)
    }
}

/// One planned request, encoded before the timed phase.
struct Planned {
    group: usize,
    day: usize,
    /// Whether the client keeps the forecasts for the replay check.
    keep: bool,
    bytes: Vec<u8>,
}

struct Plan {
    groups: Vec<Group>,
    /// Groups whose forecasts are checked against a replay, ascending.
    replayed: Vec<usize>,
    /// Requests per connection, day-major.
    per_connection: Vec<Vec<Planned>>,
}

fn plan(fleet: &Fleet, seed: u64) -> Result<Plan, String> {
    let min_len = BASE_AS_OF + PLAN_DAYS;
    // The same vehicles on every seed, so set-up trains the same models.
    let eligible: Vec<u32> = (0..FLEET_SIZE as u32)
        .filter(|&id| {
            VehicleView::build(fleet, VehicleId(id), Scenario::NextWorkingDay).len() >= min_len
        })
        .take(VEHICLES)
        .collect();
    if eligible.len() < VEHICLES {
        return Err(format!(
            "serve: only {} vehicles have {min_len} slots",
            eligible.len()
        ));
    }
    // Groups are fixed runs of eight vehicles, so every seed retrains the
    // same batches (a batch's retrain cost is set by its vehicles); the
    // seed deals the groups their retrain phases, and so their
    // connections, and draws the horizons.
    let retrain_every = config().retrain_every;
    let mut slots: Vec<usize> = (0..VEHICLES.div_ceil(BATCH)).collect();
    let mut rng = SplitMix::new(seed);
    rng.shuffle(&mut slots);
    let groups: Vec<Group> = eligible
        .chunks(BATCH)
        .zip(slots)
        .map(|(ids, slot)| Group {
            vehicles: ids.to_vec(),
            horizons: ids.iter().map(|_| 1 + rng.below(MAX_HORIZON)).collect(),
            phase: slot % retrain_every,
            // All groups of a phase share a connection, and one phase
            // retrains per day: on any day one connection writes while
            // the other only reads, so requests wait behind at most one
            // retrain and the latency tail stays comparable across runs.
            connection: (slot % retrain_every) % CONNECTIONS,
        })
        .collect();
    let mut replayed: Vec<usize> = (0..groups.len()).collect();
    rng.shuffle(&mut replayed);
    replayed.truncate(REPLAY_GROUPS);
    replayed.sort_unstable();
    let mut per_connection: Vec<Vec<Planned>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for day in 0..PLAN_DAYS {
        for (g, group) in groups.iter().enumerate() {
            let body = serde_json::to_string(&vup_net::WireRequest {
                requests: group
                    .vehicles
                    .iter()
                    .zip(&group.horizons)
                    .map(|(&vehicle_id, &horizon)| vup_net::WireBatchRequest {
                        vehicle_id,
                        horizon,
                    })
                    .collect(),
                as_of: Some(BASE_AS_OF + day),
            })
            .expect("wire request serializes");
            let mut bytes = format!(
                "POST /v1/predict-batch HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(body.as_bytes());
            per_connection[group.connection].push(Planned {
                group: g,
                day,
                keep: replayed.contains(&g),
                bytes,
            });
        }
    }
    Ok(Plan {
        groups,
        replayed,
        per_connection,
    })
}

/// Trains every group's models `phase` days before the first simulated
/// day, so their staleness is staggered.
fn prime(
    service: &PredictionService<'_>,
    plan: &Plan,
    host: &mut HostClock,
    spent: &mut Total,
) -> Result<(), String> {
    for group in &plan.groups {
        let outcomes = host.time_into(spent, || {
            service.serve_batch(&group.requests(), Some(BASE_AS_OF - group.phase))
        });
        if let Some(bad) = outcomes
            .iter()
            .find(|o| !matches!(o, ServeOutcome::RetrainedThenServed(_)))
        {
            return Err(format!("serve: priming did not train: {bad:?}"));
        }
    }
    Ok(())
}

/// Times every `Handler::handle` call and counts calls that entered
/// while another was inside (and so queued on the batch lock).
struct TimedHandler<H> {
    inner: H,
    stats: Option<Arc<HandlerStats>>,
}

#[derive(Default)]
struct HandlerStats {
    calls: Acc,
    in_flight: AtomicU64,
    overlapped: AtomicU64,
}

impl<H: Handler> Handler for TimedHandler<H> {
    fn handle(&self, request: &Request) -> Response {
        let Some(stats) = &self.stats else {
            return self.inner.handle(request);
        };
        if stats.in_flight.fetch_add(1, Ordering::SeqCst) > 0 {
            stats.overlapped.fetch_add(1, Ordering::Relaxed);
        }
        let response = stats.calls.time(|| self.inner.handle(request));
        stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        response
    }
}

/// Times `ViewSource::build_view`; delegates `is_static` so the
/// service memoizes exactly as with the wrapped source.
struct TimedViews<V> {
    inner: V,
    builds: Arc<Acc>,
}

impl<V: ViewSource> ViewSource for TimedViews<V> {
    fn build_view(&self, fleet: &Fleet, id: VehicleId, scenario: Scenario) -> Option<VehicleView> {
        self.builds
            .time(|| self.inner.build_view(fleet, id, scenario))
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }
}

/// The seams a traced daemon records into.
#[derive(Default)]
struct Seams {
    handler: Arc<HandlerStats>,
    io: Arc<IoStats>,
    views: Arc<Acc>,
}

struct Daemon<'f> {
    server: Server,
    handler: TimedHandler<AppHandler<'f>>,
    addr: SocketAddr,
    seams: Option<Seams>,
}

/// Opens a durable store in `dir`, builds and primes the service, and
/// binds the server; each step, and each primed group, is a host-clock
/// stretch of `spent`.
fn start<'f>(
    fleet: &'f Fleet,
    plan: &Plan,
    dir: &Path,
    traced: bool,
    host: &mut HostClock,
    spent: &mut Total,
) -> Result<Daemon<'f>, String> {
    let registry = Registry::new();
    let seams = traced.then(Seams::default);
    let service = host.time_into(spent, || {
        let backend: Box<dyn StorageBackend> = match &seams {
            Some(s) => Box::new(TimedBackend::new(Box::new(DiskBackend), Arc::clone(&s.io))),
            None => Box::new(DiskBackend),
        };
        let store = ModelStore::open_with(backend, dir, &registry, &Tracer::disabled())
            .map_err(|e| format!("serve: open store: {e}"))?;
        let service = PredictionService::new_observed(fleet, config(), EXECUTOR_THREADS, &registry)
            .map_err(|e| format!("serve: {e}"))?
            .with_store(store);
        Ok::<_, String>(match &seams {
            Some(s) => service.with_views(Arc::new(TimedViews {
                inner: FleetViews,
                builds: Arc::clone(&s.views),
            })),
            None => service,
        })
    })?;
    prime(&service, plan, host, spent)?;
    let server_config = ServerConfig {
        workers: CONNECTIONS,
        ..ServerConfig::default()
    };
    let (server, app) = host.time_into(spent, || {
        let server = Server::bind(server_config.clone(), &registry)
            .map_err(|e| format!("serve: bind: {e}"))?;
        let monitor = FleetMonitor::observed(&registry, MonitorConfig::default());
        let app = AppHandler::new(
            service,
            registry,
            monitor,
            server.status(),
            server_config.queue_capacity,
        );
        Ok::<_, String>((server, app))
    })?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("serve: local addr: {e}"))?;
    Ok(Daemon {
        server,
        handler: TimedHandler {
            inner: app,
            stats: seams.as_ref().map(|s| Arc::clone(&s.handler)),
        },
        addr,
        seams,
    })
}

/// One completed round trip.
struct Sample {
    group: usize,
    day: usize,
    latency_ms: f64,
    /// Host-speed scale of the sample's simulated day.
    scale: f64,
    /// HTTP status, or the io error that ended the exchange.
    result: Result<u16, String>,
    /// Whether a 200 carried one served or retrained outcome per vehicle.
    served: bool,
    /// Outcomes with status `retrained`.
    retrained: usize,
    /// The outcomes, kept for replayed groups only.
    outcomes: Vec<vup_net::WireOutcome>,
}

/// The simulated day clock the connections share: both finish a day
/// before either starts the next, and they stop at the same day. Each
/// day is one stretch of the host clock. Between days every client
/// thread runs the calibration kernel at once, so the calibration
/// covers each core the day's work ran on; the day is scaled by their
/// mean.
struct DayClock<'h> {
    barrier: Barrier,
    stop: AtomicBool,
    host: Mutex<&'h mut HostClock>,
    /// The day just ended, until its calibrations are in.
    ended: Mutex<Option<Timed>>,
    /// The calibrations after the day just ended, in ms.
    calibrations: Mutex<Vec<f64>>,
    /// Each finished day's stretch.
    days: Mutex<Vec<(usize, Timed)>>,
}

impl DayClock<'_> {
    /// Ends the caller's `day`; true when the run is over.
    fn day_done(&self, day: usize, deadline: Option<Instant>, kernel: &mut Kernel) -> bool {
        if self.barrier.wait().is_leader() {
            let ended = self.host.lock().expect("host clock lock").end();
            *self.ended.lock().expect("day end lock") = Some(ended);
        }
        self.barrier.wait();
        let calibration = kernel.calibrate();
        self.calibrations
            .lock()
            .expect("calibration lock")
            .push(calibration);
        if self.barrier.wait().is_leader() {
            let calibrations =
                std::mem::take(&mut *self.calibrations.lock().expect("calibration lock"));
            let mean = calibrations.iter().sum::<f64>() / calibrations.len() as f64;
            let ended = self.ended.lock().expect("day end lock").take();
            let mut host = self.host.lock().expect("host clock lock");
            let timed = host.close(ended.expect("the day was ended"), mean);
            self.days.lock().expect("day log lock").push((day, timed));
            let over = deadline.is_some_and(|d| Instant::now() >= d);
            if !over {
                host.start();
            }
            self.stop.store(over, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.stop.load(Ordering::SeqCst)
    }
}

/// Sends one connection's `requests` of `days` in order over a
/// keep-alive connection, reconnecting after an io error, until the
/// shared clock passes `deadline`.
fn client(
    addr: SocketAddr,
    requests: &[Planned],
    days: std::ops::Range<usize>,
    clock: &DayClock,
    deadline: Option<Instant>,
) -> Vec<Sample> {
    let connect = || {
        TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            Ok(s)
        })
    };
    let mut stream = connect();
    let mut samples = Vec::new();
    let mut kernel = Kernel::new();
    for day in days {
        let from = requests.partition_point(|p| p.day < day);
        let to = requests.partition_point(|p| p.day <= day);
        for planned in &requests[from..to] {
            samples.push(exchange(&mut stream, planned, &connect));
        }
        if clock.day_done(day, deadline, &mut kernel) {
            break;
        }
    }
    samples
}

/// One request/response round trip on `stream`, reconnecting it after
/// an io error.
fn exchange(
    stream: &mut std::io::Result<TcpStream>,
    planned: &Planned,
    connect: &dyn Fn() -> std::io::Result<TcpStream>,
) -> Sample {
    let started = Instant::now();
    let response = match stream {
        Ok(s) => s
            .write_all(&planned.bytes)
            .and_then(|()| read_response(s))
            .map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let mut sample = Sample {
        group: planned.group,
        day: planned.day,
        latency_ms: ms(started.elapsed()),
        scale: 1.0,
        result: Ok(200),
        served: false,
        retrained: 0,
        outcomes: Vec::new(),
    };
    match response {
        Ok(response) if response.status == 200 => {
            match serde_json::from_str::<WireResponse>(&response.body_text()) {
                Ok(wire) => {
                    sample.served = wire.outcomes.len() == BATCH
                        && wire
                            .outcomes
                            .iter()
                            .all(|o| o.status == "served" || o.status == "retrained");
                    sample.retrained = wire
                        .outcomes
                        .iter()
                        .filter(|o| o.status == "retrained")
                        .count();
                    if planned.keep {
                        sample.outcomes = wire.outcomes;
                    }
                }
                Err(e) => sample.result = Err(format!("undecodable response: {e}")),
            }
        }
        Ok(response) => sample.result = Ok(response.status),
        Err(e) => {
            *stream = connect();
            sample.result = Err(e);
        }
    }
    sample
}

/// Runs every connection's requests of `days` in parallel until
/// `deadline`. Returns the samples, each with its day's scale, and
/// each day's stretch.
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    days: std::ops::Range<usize>,
    deadline: Option<Instant>,
    host: &mut HostClock,
) -> (Vec<Sample>, Vec<Timed>) {
    host.start();
    let clock = DayClock {
        barrier: Barrier::new(plan.per_connection.len()),
        stop: AtomicBool::new(false),
        host: Mutex::new(host),
        ended: Mutex::new(None),
        calibrations: Mutex::new(Vec::new()),
        days: Mutex::new(Vec::new()),
    };
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = plan
            .per_connection
            .iter()
            .map(|requests| {
                let (days, clock) = (days.clone(), &clock);
                scope.spawn(move || client(addr, requests, days, clock, deadline))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let days: BTreeMap<usize, Timed> = clock
        .days
        .into_inner()
        .expect("day log lock")
        .into_iter()
        .collect();
    for sample in &mut samples {
        sample.scale = days.get(&sample.day).map_or(f64::NAN, |t| t.scale);
    }
    (samples, days.into_values().collect())
}

/// `GET /metrics` over a fresh connection.
fn scrape(addr: SocketAddr) -> Result<Vec<ParsedSample>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let response = read_response(&mut stream).map_err(|e| format!("scrape: {e}"))?;
    if response.status != 200 {
        return Err(format!("scrape: status {}", response.status));
    }
    parse_prometheus_text(&response.body_text())
}

/// Sum of the samples named `name` whose labels include `label`.
fn sum(samples: &[ParsedSample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v)))
        .map(|s| s.value)
        .sum()
}

/// Runs the workload: `setups` timed set-ups (the last one is kept),
/// the discarded warm-up day, then closed-loop traffic until `budget`
/// has elapsed.
pub fn run(seed: u64, budget: Duration, traced: bool, setups: usize) -> Result<Phase, String> {
    let work = WorkDir::new(if traced { "serve-traced" } else { "serve" })?;
    let mut host = HostClock::new();
    let mut phase = Phase::default();
    for i in 1..setups.max(1) {
        let mut spent = Total::default();
        let fleet = host.time_into(&mut spent, || {
            Fleet::generate(FleetConfig::small(FLEET_SIZE, FLEET_SEED))
        });
        let plan = host.time_into(&mut spent, || plan(&fleet, seed))?;
        let dir = work.sub(&format!("store-{i}"));
        let daemon = start(&fleet, &plan, &dir, traced, &mut host, &mut spent)?;
        phase.add_setup(&spent);
        drop(daemon);
        // Deleted now, before the kernel writes the discarded store back
        // to disk during the timed phase.
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let mut spent = Total::default();
    let fleet = host.time_into(&mut spent, || {
        Fleet::generate(FleetConfig::small(FLEET_SIZE, FLEET_SEED))
    });
    let plan = host.time_into(&mut spent, || plan(&fleet, seed))?;
    let daemon = start(
        &fleet,
        &plan,
        &work.sub("store"),
        traced,
        &mut host,
        &mut spent,
    )?;
    phase.add_setup(&spent);

    let token = CancelToken::new();
    let mut notes = Vec::new();
    let (samples, warmup, layers, timed_days) = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.server.run(&daemon.handler, &token));
        let result = (|| {
            let (warmup, _) = drive(daemon.addr, &plan, 0..1, None, &mut host);
            let before = match &daemon.seams {
                Some(seams) => {
                    let scraped = scrape(daemon.addr)?;
                    seams.handler.calls.reset();
                    seams.handler.overlapped.store(0, Ordering::Relaxed);
                    seams.io.reset();
                    seams.views.reset();
                    Some(scraped)
                }
                None => None,
            };
            let (samples, timed_days) = drive(
                daemon.addr,
                &plan,
                1..PLAN_DAYS,
                Some(Instant::now() + budget),
                &mut host,
            );
            let layers = match (&daemon.seams, before) {
                (Some(seams), Some(before)) => {
                    let handler_ms = seams.handler.calls.ms();
                    let handler_calls = seams.handler.calls.calls();
                    let overlapped = seams.handler.overlapped.load(Ordering::Relaxed);
                    let after = scrape(daemon.addr)?;
                    notes.push(format!(
                        "{} view builds through the ViewSource seam in the timed phase (views are memoized)",
                        seams.views.calls()
                    ));
                    Some(serve_layers(
                        &samples,
                        &before,
                        &after,
                        (handler_ms, handler_calls, overlapped),
                        seams,
                    ))
                }
                _ => None,
            };
            Ok::<_, String>((samples, warmup, layers, timed_days))
        })();
        token.cancel();
        server.join().expect("server thread panicked");
        result
    })?;
    drop(daemon);

    for day in &timed_days {
        phase.add_busy(day);
    }
    phase.calibration_ms = host.median_calibration_ms();
    phase.layers = layers.unwrap_or_default();
    phase.notes = notes;
    check(&mut phase, &fleet, &plan, &warmup, &samples);
    Ok(phase)
}

/// Per-layer metrics of the timed phase, from the seams and the
/// `/metrics` scrapes taken just before and just after it.
fn serve_layers(
    samples: &[Sample],
    before: &[ParsedSample],
    after: &[ParsedSample],
    (handler_ms, handler_calls, overlapped): (f64, u64, u64),
    seams: &Seams,
) -> Vec<(&'static str, f64)> {
    let delta = |name: &str, label: Option<(&str, &str)>| {
        sum(after, name, label) - sum(before, name, label)
    };
    let ops = samples.len().max(1) as f64;
    let client_ms = samples.iter().map(|s| s.latency_ms).sum::<f64>() / ops;
    let handler_per_op = handler_ms / handler_calls.max(1) as f64;
    let hits = delta("vup_store_hits_total", None);
    let lookups = hits + delta("vup_store_misses_total", None);
    let fits = delta("vup_ml_fit_nanos_count", None).max(1.0);
    let persisted = delta("vup_store_persisted_total", None).max(1.0);
    vec![
        ("net.transport_ms", client_ms - handler_per_op),
        ("net.handler_ms", handler_per_op),
        ("serve.store.hit_ratio", hits / lookups.max(1.0)),
        (
            "serve.view.ms",
            delta("vup_serve_stage_nanos_sum", Some(("stage", "view_build"))) / 1e6 / ops,
        ),
        (
            "ml.predict.ms",
            delta("vup_ml_predict_nanos_sum", None) / 1e6 / ops,
        ),
        (
            "ml.predict.calls",
            delta("vup_ml_predict_nanos_count", None) / ops,
        ),
        (
            "ml.svr.fit_ms",
            delta("vup_ml_fit_nanos_sum", None) / 1e6 / fits,
        ),
        ("serve.persist.ms", seams.io.calls.ms() / persisted),
        ("serve.persist.bytes", seams.io.bytes() as f64 / persisted),
        (
            "serve.persist.io_calls",
            seams.io.calls.calls() as f64 / persisted,
        ),
        (
            "net.overlap_ratio",
            overlapped as f64 / handler_calls.max(1) as f64,
        ),
        ("net.shed", delta("vup_net_shed_total", None)),
    ]
}

/// Failure accounting and the correctness checks: every response is a
/// 200 whose outcomes are served or retrained, the retrains follow the
/// primed schedule exactly, and the forecasts of [`REPLAY_GROUPS`]
/// seeded groups equal an in-process `serve_batch` replay bit for bit.
fn check(phase: &mut Phase, fleet: &Fleet, plan: &Plan, warmup: &[Sample], samples: &[Sample]) {
    let retrain_every = config().retrain_every;
    let (mut retrained, mut expected) = (0usize, 0usize);
    for (timed, sample) in warmup
        .iter()
        .map(|s| (false, s))
        .chain(samples.iter().map(|s| (true, s)))
    {
        let group = &plan.groups[sample.group];
        let retrains = group.retrains_on(sample.day, retrain_every);
        let ok = match &sample.result {
            Ok(200) => {
                if !sample.served {
                    phase.fail(format!(
                        "day {} group {}: outcomes other than served/retrained",
                        sample.day, sample.group
                    ));
                }
                sample.served
            }
            Ok(status) => {
                phase.fail(format!(
                    "day {} group {}: status {status}",
                    sample.day, sample.group
                ));
                false
            }
            Err(e) => {
                phase.fail(format!("day {} group {}: {e}", sample.day, sample.group));
                false
            }
        };
        if ok {
            expected += if retrains { BATCH } else { 0 };
            retrained += sample.retrained;
        }
        if !timed {
            continue;
        }
        phase.attempted += 1;
        if ok {
            let scaled = sample.latency_ms * sample.scale;
            phase.add_latency(sample.latency_ms, scaled);
            if retrains {
                phase.add_retrain(sample.latency_ms, scaled);
            }
        } else {
            phase.failed += 1;
            phase.add_failed_latency();
        }
    }
    if retrained != expected {
        phase.fail(format!(
            "{retrained} vehicles retrained, the primed schedule predicts {expected}"
        ));
    }
    let last_day = samples.iter().map(|s| s.day).max().unwrap_or(0);
    phase.notes.push(format!(
        "{} requests over simulated days 1..={last_day}; {retrained} vehicle retrains as scheduled",
        samples.len()
    ));

    // Replay a few whole group sequences in process.
    let service = match PredictionService::new(fleet, config(), EXECUTOR_THREADS) {
        Ok(s) => s,
        Err(e) => return phase.fail(format!("replay service: {e}")),
    };
    let mut by_group: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for sample in warmup.iter().chain(samples) {
        by_group.entry(sample.group).or_default().push(sample);
    }
    let mut compared = 0usize;
    for &g in &plan.replayed {
        let group = &plan.groups[g];
        let requests = group.requests();
        service.serve_batch(&requests, Some(BASE_AS_OF - group.phase));
        let mut seq = by_group.remove(&g).unwrap_or_default();
        seq.sort_by_key(|s| s.day);
        for sample in seq {
            let outcomes = service.serve_batch(&requests, Some(BASE_AS_OF + sample.day));
            if sample.result != Ok(200) {
                continue;
            }
            for (got, want) in sample.outcomes.iter().zip(&outcomes) {
                let same = match want.forecast() {
                    Some(f) => {
                        got.trained_at == Some(f.trained_at)
                            && got.hours.len() == f.hours.len()
                            && got
                                .hours
                                .iter()
                                .zip(&f.hours)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    }
                    None => false,
                };
                if !same {
                    phase.fail(format!(
                        "day {} vehicle {}: forecast differs from the in-process replay",
                        sample.day, got.vehicle_id
                    ));
                }
                compared += 1;
            }
        }
    }
    phase.notes.push(format!(
        "{compared} forecasts of groups {:?} bit-identical to an in-process serve_batch replay",
        plan.replayed
    ));
}
