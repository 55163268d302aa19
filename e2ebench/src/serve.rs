//! `serve_mixed`: a `bbgnn-serve` child process driven over HTTP by a
//! closed-loop load generator with two clients.

use crate::http::{self, Conn};
use crate::layers;
use crate::reference;
use crate::report::Metrics;
use crate::stats::{median, tail, Tally};
use crate::{cpu_s, peak_rss_mb, Cx, Run};
use bbgnn::scenario::json::Json;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Dataset scale of every job.
pub const SCALE: f64 = 0.05;
const DATASETS: [&str; 2] = ["cora", "citeseer"];
const ATTACKS: [Option<&str>; 4] = [None, Some("DICE"), Some("PEEGA"), Some("Metattack")];
const MODELS: [&str; 3] = ["GCN", "RGCN", "GNAT"];
/// Distinct job specs per round; each is submitted twice.
pub const SPECS: usize = DATASETS.len() * ATTACKS.len() * MODELS.len();
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const QUEUE: usize = 16;
/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Longest a server may take to come up or to drain.
const PATIENCE: Duration = Duration::from_secs(60);

fn pause(d: Duration) {
    // lint: allow(clock) reason=polling a child process for start-up and exit, benchmark harness code
    std::thread::sleep(d);
}

/// `(dataset, attack, model)` of spec `i`.
fn spec_parts(i: usize) -> (&'static str, Option<&'static str>, &'static str) {
    let m = MODELS[i % MODELS.len()];
    let a = ATTACKS[(i / MODELS.len()) % ATTACKS.len()];
    let d = DATASETS[i / (MODELS.len() * ATTACKS.len())];
    (d, a, m)
}

/// Cell key of spec `i`, as the server reports it.
pub fn cell_key(i: usize) -> String {
    let (d, a, m) = spec_parts(i);
    format!("{d}/{}/{m}", a.unwrap_or("Clean"))
}

/// The `POST /jobs` body of spec `i` with job seed `seed`.
fn spec_body(i: usize, seed: u64) -> String {
    let (d, a, m) = spec_parts(i);
    let mut pairs = vec![
        ("dataset".to_string(), Json::string(d)),
        ("defense".to_string(), Json::string(m)),
        (
            "eval".to_string(),
            Json::object([
                ("kind".to_string(), Json::string("accuracy")),
                ("runs".to_string(), Json::number_usize(1)),
                ("scale".to_string(), Json::number_f64(SCALE)),
            ]),
        ),
        ("seed".to_string(), Json::number_u64(seed)),
    ];
    if let Some(a) = a {
        pairs.push(("attack".to_string(), Json::string(a)));
    }
    Json::object(pairs).to_compact()
}

/// SplitMix64, for the seeded submission order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Submission order of one round: every spec twice, shuffled. The first
/// occurrence of a spec is its cold copy (`false`), the second its twin.
pub fn round_order(seed: u64, round: usize) -> Vec<(usize, bool)> {
    let mut items: Vec<usize> = (0..SPECS).chain(0..SPECS).collect();
    let mut state = seed ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    let mut seen = [false; SPECS];
    items
        .into_iter()
        .map(|s| {
            let twin = seen[s];
            seen[s] = true;
            (s, twin)
        })
        .collect()
}

/// A running `bbgnn-serve` child.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    trace: Option<PathBuf>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// Starts a server in `dir` with a fresh store and waits for its first
/// healthy `/health`. Returns it with the seconds that took.
fn start(cx: &Cx, dir: &Path, traced: bool) -> Result<(Server, f64), String> {
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let trace = traced.then(|| dir.join("obs.jsonl"));
    let err = std::fs::File::create(dir.join("serve.err")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&cx.serve_bin);
    cmd.args(["--addr", "127.0.0.1:0", "--queue", &QUEUE.to_string()])
        .args(["--workers", &WORKERS.to_string(), "--store"])
        .arg(&store);
    if let Some(t) = &trace {
        cmd.arg("--trace").arg(t);
    }
    // Two kernel threads split over two workers: one thread per job.
    cmd.env("BBGNN_THREADS", "2")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err);
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("starting {}: {e}", cx.serve_bin.display()))?;
    let Some(out) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("server stdout was not captured".to_string());
    };
    let mut lines = BufReader::new(out).lines();
    let addr = lines.by_ref().map_while(Result::ok).find_map(|l| {
        l.split("listening on http://")
            .nth(1)
            .and_then(|a| a.trim().parse::<SocketAddr>().ok())
    });
    // Keep draining stdout so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
    let Some(addr) = addr else {
        let _ = child.kill();
        let _ = child.wait();
        let _ = drain.join();
        return Err(format!(
            "server exited before listening; see {}",
            dir.join("serve.err").display()
        ));
    };
    let server = Server {
        child,
        addr,
        store,
        trace,
        drain: Some(drain),
    };
    let mut conn = Conn::new(addr);
    loop {
        if matches!(conn.request("GET", "/health", ""), Ok((200, _))) {
            return Ok((server, t0.elapsed().as_secs_f64()));
        }
        if t0.elapsed() > PATIENCE {
            return Err("server never became healthy".to_string());
        }
        conn = Conn::new(addr);
        pause(Duration::from_millis(1));
    }
}

/// Reads the child's peak RSS, then drains it through `POST /shutdown`.
fn stop(mut server: Server) -> Result<f64, String> {
    let rss = peak_rss_mb(Some(server.child.id()));
    let _ = Conn::new(server.addr).request("POST", "/shutdown", "");
    let t0 = Instant::now();
    loop {
        match server.child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if t0.elapsed() < PATIENCE => pause(Duration::from_millis(5)),
            _ => return Err("server did not drain after POST /shutdown".to_string()),
        }
    }
    rss
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// One finished job as the load generator saw it.
#[derive(Clone, Debug)]
struct JobRec {
    spec: usize,
    twin: bool,
    /// Submit → SSE `done`, seconds.
    latency: f64,
    /// POST round trip, seconds.
    submit: f64,
    /// Submit → first `progress` event (or `done`), seconds.
    queue_wait: f64,
    /// First `progress` → `done`, seconds (0 when never seen running).
    run: f64,
    warm: bool,
    value: String,
    attempts: usize,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, k| d.as_object()?.get(*k))
}

/// Submits spec `spec` and follows its events to the end.
fn one_job(
    cx: &Cx,
    conn: &mut Conn,
    addr: SocketAddr,
    spec: usize,
    seed: u64,
    twin: bool,
    tally: &Mutex<Tally>,
) -> Option<JobRec> {
    let count = |f: &dyn Fn(&mut Tally)| {
        if let Ok(mut t) = tally.lock() {
            f(&mut t);
        }
    };
    let key = cell_key(spec);
    let job = cx.rec.open("job", 0, &key);
    let t0 = Instant::now();
    let (posted, submit) = cx.rec.time("job/submit", job.id, &key, || {
        conn.request("POST", "/jobs", &spec_body(spec, seed))
    });
    let Ok((status, body)) = posted else {
        count(&|t| t.error());
        *conn = Conn::new(addr);
        cx.rec.end(job);
        return None;
    };
    let accepted = tally.lock().map(|mut t| t.http(status)).unwrap_or(false);
    let id = Json::parse(&body)
        .ok()
        .and_then(|d| field(&d, &["id"]).and_then(Json::as_u64));
    let Some(id) = id.filter(|_| accepted) else {
        if accepted {
            count(&|t| t.error());
        }
        cx.rec.end(job);
        return None;
    };
    let mut first_running: Option<Instant> = None;
    let mut end: Option<http::Event> = None;
    let followed = http::follow(addr, &format!("/jobs/{id}/events"), |ev| {
        if ev.name == "progress" && first_running.is_none() {
            first_running = Some(ev.at);
        }
        if ev.name == "done" || ev.name == "cancelled" {
            end = Some(ev);
        }
    });
    let done = end.filter(|_| matches!(followed, Ok(200)));
    let Some(done) = done else {
        count(&|t| t.error());
        cx.rec.end(job);
        return None;
    };
    let doc = Json::parse(&done.data).unwrap_or(Json::Null);
    let text = |p: &[&str]| {
        field(&doc, p)
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let outcome = if done.name == "done" {
        text(&["result", "outcome"])
    } else {
        "skipped".to_string()
    };
    count(&|t| t.outcome(&outcome));
    let started = first_running.unwrap_or(done.at);
    let rec = JobRec {
        spec,
        twin,
        latency: done.at.duration_since(t0).as_secs_f64(),
        submit,
        queue_wait: started.duration_since(t0).as_secs_f64(),
        run: done.at.duration_since(started).as_secs_f64(),
        warm: matches!(field(&doc, &["result", "warm"]), Some(Json::Bool(true))),
        value: text(&["result", "value"]),
        attempts: field(&doc, &["result", "attempts"])
            .and_then(Json::as_usize)
            .unwrap_or(0),
    };
    cx.rec.end(job);
    Some(rec)
}

/// The shared queue of one round.
struct Round {
    order: Vec<(usize, bool)>,
    cold_done: [bool; SPECS],
}

/// Runs one round: every spec twice, a twin only after its cold copy has
/// finished, by `CLIENTS` closed-loop clients. Returns the jobs and the
/// round's wall time.
fn round(
    cx: &Cx,
    addr: SocketAddr,
    seed: u64,
    r: usize,
    tally: &Mutex<Tally>,
) -> (Vec<JobRec>, f64) {
    let state = Mutex::new(Round {
        order: round_order(cx.seed, r),
        cold_done: [false; SPECS],
    });
    let ready = Condvar::new();
    let jobs = Mutex::new(Vec::new());
    let span = cx.rec.open("round", 0, &format!("round {r}"));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                loop {
                    let next = {
                        let Ok(mut st) = state.lock() else { return };
                        loop {
                            if st.order.is_empty() {
                                break None;
                            }
                            let pos = st
                                .order
                                .iter()
                                .position(|&(i, twin)| !twin || st.cold_done[i]);
                            if let Some(p) = pos {
                                break Some(st.order.remove(p));
                            }
                            st = match ready.wait(st) {
                                Ok(g) => g,
                                Err(_) => return,
                            };
                        }
                    };
                    let Some((spec, twin)) = next else { return };
                    let rec = one_job(cx, &mut conn, addr, spec, seed, twin, tally);
                    if !twin {
                        if let Ok(mut st) = state.lock() {
                            st.cold_done[spec] = true;
                        }
                        ready.notify_all();
                    }
                    if let (Some(rec), Ok(mut j)) = (rec, jobs.lock()) {
                        j.push(rec);
                    }
                }
            });
        }
    });
    let wall = cx.rec.end(span);
    (jobs.into_inner().unwrap_or_default(), wall)
}

/// What one server's share of the run measured.
struct Phase {
    jobs: Vec<JobRec>,
    rounds: Vec<f64>,
    /// Server CPU seconds per round.
    round_cpu: Vec<f64>,
    store_bytes: u64,
    rss_mb: f64,
    trace: Option<PathBuf>,
}

/// Rounds against `server` for `budget` seconds (at least one round).
/// Job seeds advance by one per round, so every round starts cold.
fn drive(
    cx: &Cx,
    server: Server,
    budget: f64,
    first_round: usize,
    tally: &Mutex<Tally>,
    run: &mut Run,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut rounds = Vec::new();
    let mut round_cpu = Vec::new();
    let pid = Some(server.child.id());
    let mut r = first_round;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < budget {
        let seed = cx.seed.wrapping_add(r as u64);
        let cpu = cpu_s(pid)?;
        let (js, wall) = round(cx, server.addr, seed, r, tally);
        round_cpu.push(cpu_s(pid)? - cpu);
        check_round(cx, &js, r, run);
        jobs.extend(js);
        rounds.push(wall);
        r += 1;
    }
    let store_bytes = dir_bytes(&server.store);
    let trace = server.trace.clone();
    let rss_mb = stop(server)?;
    Ok(Phase {
        jobs,
        rounds,
        round_cpu,
        store_bytes,
        rss_mb,
        trace,
    })
}

/// Twins must equal their cold copies byte for byte; round 0 of the
/// default seed must equal the committed reference.
fn check_round(cx: &Cx, jobs: &[JobRec], r: usize, run: &mut Run) {
    for cold in jobs.iter().filter(|j| !j.twin) {
        let key = cell_key(cold.spec);
        if let Some(twin) = jobs.iter().find(|j| j.twin && j.spec == cold.spec) {
            if twin.value != cold.value {
                run.mismatch(format!(
                    "round {r} {key}: replay {:?} != cold {:?}",
                    twin.value, cold.value
                ));
            }
        }
        if r == 0 && cx.seed == reference::DEFAULT_SEED {
            let want = reference::SERVE_VALUES
                .iter()
                .find(|(k, _)| *k == key)
                .map(|e| e.1);
            if want != Some(cold.value.as_str()) {
                run.mismatch(format!("{key}: value {:?}, reference {want:?}", cold.value));
            }
        }
    }
}

fn ms(v: Option<f64>) -> f64 {
    v.unwrap_or(0.0) * 1e3
}

/// `serve_mixed`: accuracy jobs at scale 0.05 over {cora, citeseer} ×
/// {clean, DICE, PEEGA, Metattack} × {GCN, RGCN, GNAT}, each spec twice.
pub fn serve_mixed(cx: &Cx) -> Result<Run, String> {
    let mut run = Run::default();
    let tally = Mutex::new(Tally::default());
    let mut starts = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = cx.dir.join(format!("serve-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (started, _) = cx
            .rec
            .time("setup/server_start", 0, "", || start(cx, &dir, false));
        let (server, secs) = started?;
        starts.push(secs);
        if rep + 1 < SETUP_REPS {
            stop(server)?;
        } else {
            kept = Some(server);
        }
    }
    let server = kept.ok_or("no server was started")?;
    run.metrics.set_median("setup_s", &starts);
    run.metrics.set_median("setup.server_start_s", &starts);

    let budget = if cx.trace {
        cx.seconds / 2.0
    } else {
        cx.seconds
    };
    let main = drive(cx, server, budget, 0, &tally, &mut run)?;
    let layer_tally = *tally.lock().map_err(|_| "tally lock poisoned")?;
    run.tally = layer_tally;

    crate::set_pass_metrics(
        &mut run.metrics,
        &main.rounds,
        &main.round_cpu,
        main.jobs.len(),
    );
    run.metrics.set("peak_rss_mb", main.rss_mb, 1);

    if cx.trace {
        let dir = cx.dir.join("serve-traced");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (server, _) = start(cx, &dir, true)?;
        let first = main.rounds.len();
        let traced = drive(cx, server, cx.seconds / 2.0, first, &tally, &mut run)?;
        let path = traced
            .trace
            .clone()
            .ok_or("traced server has no trace path")?;
        let summary = bbgnn_bench::trace::read_trace(&path.display().to_string())
            .map_err(|e| format!("serve obs trace failed validation: {e}"))?;
        let wall: f64 = traced.rounds.iter().sum();
        layers::from_obs(&mut run.metrics, &summary, traced.rounds.len(), wall, 1);
        layers::trace_overhead(&mut run.metrics, "pass_s", &main.rounds, &traced.rounds);
        serve_layers(&mut run.metrics, &main);
        run.layer_tally = *tally.lock().map_err(|_| "tally lock poisoned")?;
        let t = run.layer_tally;
        run.metrics
            .set("serve.refused", t.refused as f64, t.attempted);
        let attempts = main
            .jobs
            .iter()
            .chain(&traced.jobs)
            .map(|j| j.attempts)
            .sum();
        run.set_scenario(attempts);
        // The job datasets, generated in-process for the graph layer.
        let (g, secs) = cx.rec.time("graph/generate", 0, "cora", || {
            bbgnn::scenario::dataset::load_dataset("cora", SCALE, cx.seed)
        });
        let g = g.map_err(|e| format!("generating cora: {e}"))?;
        run.metrics.set_note(
            "graph.generate_s",
            secs,
            1,
            "cora at scale 0.05".to_string(),
        );
        run.metrics.set("graph.nodes", g.num_nodes() as f64, 1);
        run.metrics.set("graph.edges", g.num_edges() as f64, 1);
    }
    Ok(run)
}

/// Serve and store layers, timed from outside on the untraced server.
fn serve_layers(m: &mut Metrics, p: &Phase) {
    let n = p.jobs.len();
    let pick = |f: &dyn Fn(&JobRec) -> f64, keep: &dyn Fn(&JobRec) -> bool| -> Vec<f64> {
        p.jobs.iter().filter(|j| keep(j)).map(f).collect()
    };
    let submit = pick(&|j| j.submit, &|_| true);
    m.set("serve.submit_ms", ms(median(&submit)), n);
    m.set_median("serve.queue_wait_s", &pick(&|j| j.queue_wait, &|_| true));
    m.set_median("serve.run_s", &pick(&|j| j.run, &|_| true));
    m.set_median("serve.job_p50_s", &pick(&|j| j.latency, &|_| true));
    let cold = pick(&|j| j.latency, &|j| !j.warm);
    let warm = pick(&|j| j.latency, &|j| j.warm);
    m.set_median("serve.cold_job_s", &cold);
    m.set_median("serve.warm_job_s", &warm);
    let lat = pick(&|j| j.latency, &|_| true);
    if let Some(t) = tail(&lat, 10) {
        m.set_note(
            "serve.job_tail_s",
            t.value,
            n,
            format!("p{} with {} of {n} samples beyond", t.percentile, t.beyond),
        );
    }
    if n > 0 {
        m.set_note(
            "store.warm_ratio",
            warm.len() as f64 / n as f64,
            n,
            format!("{} warm of {n} jobs", warm.len()),
        );
    }
    m.set("store.bytes", p.store_bytes as f64, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn round_order_holds_every_spec_twice_cold_first() {
        let order = round_order(7, 0);
        assert_eq!(order.len(), 2 * SPECS);
        for spec in 0..SPECS {
            let copies: Vec<bool> = order
                .iter()
                .filter(|(s, _)| *s == spec)
                .map(|(_, t)| *t)
                .collect();
            assert_eq!(copies, [false, true]);
        }
        assert_eq!(order, round_order(7, 0), "same seed, same order");
        assert_ne!(order, round_order(7, 1), "rounds are shuffled afresh");
        let keys: std::collections::BTreeSet<String> = (0..SPECS).map(cell_key).collect();
        assert_eq!(keys.len(), SPECS);
        assert!(keys
            .iter()
            .all(|k| reference::SERVE_VALUES.iter().any(|(r, _)| r == k)));
    }

    /// A 429 from the server counts as a refused submission.
    #[test]
    fn queue_full_counts_as_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf).unwrap();
            let body = "{\"error\":\"queue full\"}";
            let head = format!(
                "HTTP/1.1 429 Too Many Requests\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(body.as_bytes()).unwrap();
        });
        let tally = Mutex::new(Tally::default());
        let cx = Cx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            dir: std::env::temp_dir(),
            serve_bin: PathBuf::new(),
            rec: crate::spans::Recorder::new(false),
        };
        let mut conn = Conn::new(addr);
        assert!(one_job(&cx, &mut conn, addr, 0, 1, false, &tally).is_none());
        server.join().unwrap();
        let t = *tally.lock().unwrap();
        assert_eq!((t.attempted, t.refused, t.failed_total()), (1, 1, 1));
    }
}
