//! The wire protocol: a length-prefixed line grammar.
//!
//! Every message is one UTF-8 line framed as `<len> <payload>\n`, where
//! `len` is the decimal byte length of the payload (the frame survives
//! payloads containing no newline, and a reader can reject oversized
//! frames before allocating). Payloads are space-separated tokens;
//! vectors are comma-separated `f64` literals and matrices comma-separated
//! `row:col:value` triplets. `f64` values print through Rust's shortest
//! round-trip formatting, so a value parsed back from the wire is
//! **bit-identical** to the value the server computed — the property the
//! service's "same result as direct `Sequential` execution" guarantee
//! rides on.
//!
//! # Grammar
//!
//! ```text
//! request  := req <tenant> <backend> <job>
//! backend  := seq | par | dist:<nodes>
//! job      := put <name> <nrows> <ncols> <r:c:v,...>
//!           | mxv <name> <x-csv>
//!           | dot <x-csv> <y-csv>
//!           | bfs <name> <source>
//!           | sssp <name> <source>
//!           | pagerank <name> <damping> <tol> <max-iters>
//!           | tricount <name>
//!           | cg <name> <iters> <b-csv>
//!           | hpcg <size> <levels> <iters>
//!           | stats
//!
//! response := ok <result> meter <secs> <h-bytes> <steps> <jobs> <plan-hits> <plan-misses>
//!                <push-steps> <pull-steps>
//!           | err <code> <message...>
//! result   := ack | scalar <v> | vec <csv> | levels <csv>
//!           | count <n> | solve <iters> <relres> <x-csv|->
//!           | stats <json>
//! code     := overloaded | bad_request | no_such_matrix | exec | io | shutdown
//! ```

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};

/// Hard ceiling on one frame's payload size (64 MiB): a malformed or
/// hostile length prefix must not become an allocation bomb.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The execution backend a job asks for. Unlike
/// [`BackendKind`](graphblas::BackendKind) this is a pure description —
/// parsing it has no side effects (no cluster registration); workers map
/// it onto their own cached dispatchers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BackendSpec {
    /// Single-threaded reference backend.
    Seq,
    /// Shared-memory parallel backend.
    Par,
    /// Simulated BSP cluster with the given node count.
    Dist(usize),
}

impl BackendSpec {
    /// Parses `seq | par | dist:<nodes>` (same spelling rules as
    /// `BackendKind::parse`, minus the bare-`dist` default: a service job
    /// must say how many nodes it wants billed).
    pub fn parse(s: &str) -> Result<BackendSpec, ServeError> {
        let norm = s.trim().to_ascii_lowercase();
        match norm.as_str() {
            "seq" | "sequential" => return Ok(BackendSpec::Seq),
            "par" | "parallel" => return Ok(BackendSpec::Par),
            _ => {}
        }
        if let Some(nodes) = norm
            .strip_prefix("dist:")
            .or_else(|| norm.strip_prefix("distributed:"))
        {
            let n: usize = nodes.parse().map_err(|_| {
                ServeError::BadRequest(format!("invalid node count {nodes:?} in backend {s:?}"))
            })?;
            if n == 0 {
                return Err(ServeError::BadRequest(format!(
                    "invalid node count 0 in backend {s:?}"
                )));
            }
            return Ok(BackendSpec::Dist(n));
        }
        Err(ServeError::BadRequest(format!(
            "unknown backend {s:?} (expected seq|par|dist:<nodes>)"
        )))
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Seq => f.write_str("seq"),
            BackendSpec::Par => f.write_str("par"),
            BackendSpec::Dist(p) => write!(f, "dist:{p}"),
        }
    }
}

/// One job the service knows how to run.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Register a named matrix in the server's registry.
    Put {
        /// Registry name.
        name: String,
        /// Row count.
        nrows: usize,
        /// Column count.
        ncols: usize,
        /// `(row, col, value)` entries.
        triplets: Vec<(usize, usize, f64)>,
    },
    /// `y = A·x` against a registered matrix — the micro-op the batcher
    /// coalesces across requests.
    Mxv {
        /// Registry name of `A`.
        matrix: String,
        /// Input vector.
        x: Vec<f64>,
    },
    /// `⟨x, y⟩` over the arithmetic semiring.
    Dot {
        /// Left operand.
        x: Vec<f64>,
        /// Right operand.
        y: Vec<f64>,
    },
    /// BFS levels from `source` on a registered adjacency.
    Bfs {
        /// Registry name.
        matrix: String,
        /// Source vertex.
        source: usize,
    },
    /// Single-source shortest paths from `source`.
    Sssp {
        /// Registry name.
        matrix: String,
        /// Source vertex.
        source: usize,
    },
    /// PageRank power iteration on a registered column-stochastic matrix.
    Pagerank {
        /// Registry name.
        matrix: String,
        /// Damping factor in `[0, 1)`.
        damping: f64,
        /// Convergence tolerance (max per-vertex change).
        tol: f64,
        /// Iteration cap.
        max_iters: usize,
    },
    /// Triangle count of a registered undirected adjacency.
    TriangleCount {
        /// Registry name.
        matrix: String,
    },
    /// Unpreconditioned CG on a registered SPD matrix.
    Cg {
        /// Registry name of `A`.
        matrix: String,
        /// Fixed iteration count (HPCG style).
        iters: usize,
        /// Right-hand side.
        b: Vec<f64>,
    },
    /// A full preconditioned HPCG solve on a generated `size`³ problem
    /// (problems are cached server-side by `(size, levels)`).
    Hpcg {
        /// Grid edge length.
        size: usize,
        /// Multigrid depth.
        levels: usize,
        /// CG iterations.
        iters: usize,
    },
    /// Observability snapshot: server-wide counters plus the worker's
    /// metric registry, returned as one compact JSON document.
    Stats,
}

impl JobSpec {
    /// The job-kind token that leads its wire encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Put { .. } => "put",
            JobSpec::Mxv { .. } => "mxv",
            JobSpec::Dot { .. } => "dot",
            JobSpec::Bfs { .. } => "bfs",
            JobSpec::Sssp { .. } => "sssp",
            JobSpec::Pagerank { .. } => "pagerank",
            JobSpec::TriangleCount { .. } => "tricount",
            JobSpec::Cg { .. } => "cg",
            JobSpec::Hpcg { .. } => "hpcg",
            JobSpec::Stats => "stats",
        }
    }
}

/// One request: who is asking, on what backend, for which job.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Tenant identity — the billing/QoS scope of the job.
    pub tenant: String,
    /// Requested execution backend.
    pub backend: BackendSpec,
    /// The job to run.
    pub job: JobSpec,
}

/// The result carried by a successful [`Response`].
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// The job had no value to return (e.g. `put`).
    Ack,
    /// One scalar.
    Scalar(f64),
    /// A dense `f64` vector.
    Vector(Vec<f64>),
    /// Per-vertex BFS levels.
    Levels(Vec<i64>),
    /// A count.
    Count(usize),
    /// A solver outcome. `x` is the solution for registry-matrix CG and
    /// empty for HPCG jobs (the generated problem's solution is bulky;
    /// the bit-exact `relative_residual` is the comparison handle).
    Solve {
        /// Iterations executed.
        iterations: usize,
        /// Final `‖r‖/‖r⁰‖`.
        relative_residual: f64,
        /// Solution vector (possibly empty, see above).
        x: Vec<f64>,
    },
    /// An observability snapshot as one compact JSON token. The server
    /// emits it without interior whitespace, so it travels the wire as a
    /// single space-separated token like every other payload field.
    Stats(String),
}

/// The tenant's cumulative bill, attached to every successful response.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MeterSnapshot {
    /// Modeled BSP seconds across everything this tenant ran.
    pub modeled_secs: f64,
    /// Communicated h-relation bytes across the tenant's jobs.
    pub h_bytes: f64,
    /// Recorded cost supersteps.
    pub supersteps: usize,
    /// Jobs completed for this tenant.
    pub jobs: u64,
    /// Compiled-plan cache hits the tenant's jobs enjoyed.
    pub plan_hits: u64,
    /// Compiled-plan cache misses (first-time compilations) the tenant's
    /// jobs paid for.
    pub plan_misses: u64,
    /// Frontier steps the tenant's traversal jobs (`bfs`, `sssp`) ran in
    /// **push** mode (sparse column scatter over the frontier nonzeros).
    pub frontier_push: u64,
    /// Frontier steps that ran in **pull** mode (dense row sweep).
    pub frontier_pull: u64,
}

/// One response: a payload plus the tenant's meter, or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job ran; here is its result and the tenant's running bill.
    Ok {
        /// Job result.
        payload: Payload,
        /// The tenant's cumulative meter after this job.
        meter: MeterSnapshot,
    },
    /// The job was rejected or failed.
    Err {
        /// Stable error code (see [`ServeError::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Wraps a [`ServeError`] as a wire response.
    pub fn from_error(e: &ServeError) -> Response {
        Response::Err {
            code: e.code().to_string(),
            message: e.to_string(),
        }
    }

    /// Converts a wire response back into a service-level result.
    pub fn into_result(self) -> Result<(Payload, MeterSnapshot), ServeError> {
        match self {
            Response::Ok { payload, meter } => Ok((payload, meter)),
            Response::Err { code, message } => Err(ServeError::from_wire(&code, &message)),
        }
    }
}

fn fmt_csv(values: &[f64]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

fn parse_csv(s: &str) -> Result<Vec<f64>, ServeError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| ServeError::BadRequest(format!("invalid f64 literal {t:?}")))
        })
        .collect()
}

fn fmt_levels(values: &[i64]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

fn parse_levels(s: &str) -> Result<Vec<i64>, ServeError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<i64>()
                .map_err(|_| ServeError::BadRequest(format!("invalid i64 literal {t:?}")))
        })
        .collect()
}

fn fmt_triplets(triplets: &[(usize, usize, f64)]) -> String {
    let mut out = String::new();
    for (i, (r, c, v)) in triplets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{r}:{c}:{v}"));
    }
    out
}

fn parse_triplets(s: &str) -> Result<Vec<(usize, usize, f64)>, ServeError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            let mut parts = t.splitn(3, ':');
            let bad = || ServeError::BadRequest(format!("invalid triplet {t:?} (want r:c:v)"));
            let r = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            let c = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            let v = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            Ok((r, c, v))
        })
        .collect()
}

/// A space-separated token cursor with precise complaints.
struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
    context: &'static str,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str, context: &'static str) -> Tokens<'a> {
        Tokens {
            iter: line.split_whitespace(),
            context,
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ServeError> {
        self.iter
            .next()
            .ok_or_else(|| ServeError::BadRequest(format!("{}: missing {what}", self.context)))
    }

    fn next_usize(&mut self, what: &str) -> Result<usize, ServeError> {
        let t = self.next(what)?;
        t.parse()
            .map_err(|_| ServeError::BadRequest(format!("{}: invalid {what} {t:?}", self.context)))
    }

    fn next_f64(&mut self, what: &str) -> Result<f64, ServeError> {
        let t = self.next(what)?;
        t.parse()
            .map_err(|_| ServeError::BadRequest(format!("{}: invalid {what} {t:?}", self.context)))
    }

    fn rest(&mut self) -> String {
        self.iter.by_ref().collect::<Vec<_>>().join(" ")
    }

    fn expect_end(&mut self) -> Result<(), ServeError> {
        match self.iter.next() {
            None => Ok(()),
            Some(t) => Err(ServeError::BadRequest(format!(
                "{}: unexpected trailing token {t:?}",
                self.context
            ))),
        }
    }
}

impl Request {
    /// Encodes the request as one payload line (unframed).
    pub fn to_line(&self) -> String {
        let job = match &self.job {
            JobSpec::Put {
                name,
                nrows,
                ncols,
                triplets,
            } => format!("put {name} {nrows} {ncols} {}", fmt_triplets(triplets)),
            JobSpec::Mxv { matrix, x } => format!("mxv {matrix} {}", fmt_csv(x)),
            JobSpec::Dot { x, y } => format!("dot {} {}", fmt_csv(x), fmt_csv(y)),
            JobSpec::Bfs { matrix, source } => format!("bfs {matrix} {source}"),
            JobSpec::Sssp { matrix, source } => format!("sssp {matrix} {source}"),
            JobSpec::Pagerank {
                matrix,
                damping,
                tol,
                max_iters,
            } => format!("pagerank {matrix} {damping} {tol} {max_iters}"),
            JobSpec::TriangleCount { matrix } => format!("tricount {matrix}"),
            JobSpec::Cg { matrix, iters, b } => format!("cg {matrix} {iters} {}", fmt_csv(b)),
            JobSpec::Hpcg {
                size,
                levels,
                iters,
            } => format!("hpcg {size} {levels} {iters}"),
            JobSpec::Stats => "stats".to_string(),
        };
        format!("req {} {} {job}", self.tenant, self.backend)
    }

    /// Parses one payload line into a request.
    pub fn parse_line(line: &str) -> Result<Request, ServeError> {
        let mut t = Tokens::new(line, "request");
        let tag = t.next("leading `req` tag")?;
        if tag != "req" {
            return Err(ServeError::BadRequest(format!(
                "request: expected leading `req`, got {tag:?}"
            )));
        }
        let tenant = t.next("tenant")?.to_string();
        let backend = BackendSpec::parse(t.next("backend")?)?;
        let kind = t.next("job kind")?;
        let job = match kind {
            "put" => {
                let name = t.next("matrix name")?.to_string();
                let nrows = t.next_usize("nrows")?;
                let ncols = t.next_usize("ncols")?;
                let triplets = parse_triplets(t.next("triplets")?)?;
                JobSpec::Put {
                    name,
                    nrows,
                    ncols,
                    triplets,
                }
            }
            "mxv" => JobSpec::Mxv {
                matrix: t.next("matrix name")?.to_string(),
                x: parse_csv(t.next("x vector")?)?,
            },
            "dot" => JobSpec::Dot {
                x: parse_csv(t.next("x vector")?)?,
                y: parse_csv(t.next("y vector")?)?,
            },
            "bfs" => JobSpec::Bfs {
                matrix: t.next("matrix name")?.to_string(),
                source: t.next_usize("source vertex")?,
            },
            "sssp" => JobSpec::Sssp {
                matrix: t.next("matrix name")?.to_string(),
                source: t.next_usize("source vertex")?,
            },
            "pagerank" => JobSpec::Pagerank {
                matrix: t.next("matrix name")?.to_string(),
                damping: t.next_f64("damping")?,
                tol: t.next_f64("tolerance")?,
                max_iters: t.next_usize("max iterations")?,
            },
            "tricount" => JobSpec::TriangleCount {
                matrix: t.next("matrix name")?.to_string(),
            },
            "cg" => JobSpec::Cg {
                matrix: t.next("matrix name")?.to_string(),
                iters: t.next_usize("iteration count")?,
                b: parse_csv(t.next("rhs vector")?)?,
            },
            "hpcg" => JobSpec::Hpcg {
                size: t.next_usize("grid size")?,
                levels: t.next_usize("mg levels")?,
                iters: t.next_usize("iteration count")?,
            },
            "stats" => JobSpec::Stats,
            other => {
                return Err(ServeError::BadRequest(format!(
                    "request: unknown job kind {other:?}"
                )))
            }
        };
        t.expect_end()?;
        Ok(Request {
            tenant,
            backend,
            job,
        })
    }
}

impl Response {
    /// Encodes the response as one payload line (unframed).
    pub fn to_line(&self) -> String {
        match self {
            Response::Ok { payload, meter } => {
                let body = match payload {
                    Payload::Ack => "ack".to_string(),
                    Payload::Scalar(v) => format!("scalar {v}"),
                    Payload::Vector(v) => format!(
                        "vec {}",
                        if v.is_empty() {
                            "-".to_string()
                        } else {
                            fmt_csv(v)
                        }
                    ),
                    Payload::Levels(v) => format!(
                        "levels {}",
                        if v.is_empty() {
                            "-".to_string()
                        } else {
                            fmt_levels(v)
                        }
                    ),
                    Payload::Count(n) => format!("count {n}"),
                    Payload::Solve {
                        iterations,
                        relative_residual,
                        x,
                    } => format!(
                        "solve {iterations} {relative_residual} {}",
                        if x.is_empty() {
                            "-".to_string()
                        } else {
                            fmt_csv(x)
                        }
                    ),
                    Payload::Stats(json) => format!("stats {json}"),
                };
                format!(
                    "ok {body} meter {} {} {} {} {} {} {} {}",
                    meter.modeled_secs,
                    meter.h_bytes,
                    meter.supersteps,
                    meter.jobs,
                    meter.plan_hits,
                    meter.plan_misses,
                    meter.frontier_push,
                    meter.frontier_pull
                )
            }
            Response::Err { code, message } => format!("err {code} {message}"),
        }
    }

    /// Parses one payload line into a response.
    pub fn parse_line(line: &str) -> Result<Response, ServeError> {
        let mut t = Tokens::new(line, "response");
        match t.next("leading ok/err tag")? {
            "err" => {
                let code = t.next("error code")?.to_string();
                Ok(Response::Err {
                    code,
                    message: t.rest(),
                })
            }
            "ok" => {
                let payload = match t.next("result kind")? {
                    "ack" => Payload::Ack,
                    "scalar" => Payload::Scalar(t.next_f64("scalar value")?),
                    "vec" => Payload::Vector(parse_csv(t.next("vector")?)?),
                    "levels" => Payload::Levels(parse_levels(t.next("levels")?)?),
                    "count" => Payload::Count(t.next_usize("count")?),
                    "solve" => Payload::Solve {
                        iterations: t.next_usize("iterations")?,
                        relative_residual: t.next_f64("relative residual")?,
                        x: parse_csv(t.next("solution vector")?)?,
                    },
                    "stats" => Payload::Stats(t.next("stats json")?.to_string()),
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "response: unknown result kind {other:?}"
                        )))
                    }
                };
                let tag = t.next("meter tag")?;
                if tag != "meter" {
                    return Err(ServeError::BadRequest(format!(
                        "response: expected `meter`, got {tag:?}"
                    )));
                }
                let meter = MeterSnapshot {
                    modeled_secs: t.next_f64("meter secs")?,
                    h_bytes: t.next_f64("meter h-bytes")?,
                    supersteps: t.next_usize("meter steps")?,
                    jobs: t.next_usize("meter jobs")? as u64,
                    plan_hits: t.next_usize("meter plan hits")? as u64,
                    plan_misses: t.next_usize("meter plan misses")? as u64,
                    frontier_push: t.next_usize("meter frontier push")? as u64,
                    frontier_pull: t.next_usize("meter frontier pull")? as u64,
                };
                t.expect_end()?;
                Ok(Response::Ok { payload, meter })
            }
            other => Err(ServeError::BadRequest(format!(
                "response: expected ok/err, got {other:?}"
            ))),
        }
    }
}

/// Writes one framed payload: `<len> <payload>\n`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b" ")?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one framed payload. Returns `Ok(None)` on clean EOF before the
/// first byte of a frame; any other truncation or malformation is an
/// error.
pub fn read_frame<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    // Read the decimal length prefix up to the separating space.
    let mut len: usize = 0;
    let mut saw_digit = false;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 if !saw_digit => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "frame truncated in length prefix",
                ))
            }
            _ => {}
        }
        match byte[0] {
            b'0'..=b'9' => {
                saw_digit = true;
                len = len
                    .saturating_mul(10)
                    .saturating_add((byte[0] - b'0') as usize);
                if len > MAX_FRAME_BYTES {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("frame length exceeds the {MAX_FRAME_BYTES}-byte ceiling"),
                    ));
                }
            }
            b' ' if saw_digit => break,
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("invalid byte {other:#04x} in frame length prefix"),
                ))
            }
        }
    }
    // The prefix is the peer's word, not an allocation size: the buffer
    // grows with the bytes that actually arrive.
    let mut payload = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame truncated in payload",
        ));
    }
    let mut newline = [0u8; 1];
    r.read_exact(&mut newline)?;
    if newline[0] != b'\n' {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame payload not terminated by newline (bad length prefix?)",
        ));
    }
    String::from_utf8(payload).map(Some).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame payload is not UTF-8",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_line();
        assert_eq!(Request::parse_line(&line).unwrap(), req, "line: {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request {
            tenant: "acme".into(),
            backend: BackendSpec::Seq,
            job: JobSpec::Put {
                name: "a".into(),
                nrows: 2,
                ncols: 2,
                triplets: vec![(0, 0, 2.0), (1, 1, -0.125)],
            },
        });
        round_trip_request(Request {
            tenant: "acme".into(),
            backend: BackendSpec::Dist(4),
            job: JobSpec::Mxv {
                matrix: "a".into(),
                x: vec![1.0, -2.5],
            },
        });
        round_trip_request(Request {
            tenant: "t2".into(),
            backend: BackendSpec::Par,
            job: JobSpec::Pagerank {
                matrix: "web".into(),
                damping: 0.85,
                tol: 1e-9,
                max_iters: 100,
            },
        });
        round_trip_request(Request {
            tenant: "t2".into(),
            backend: BackendSpec::Seq,
            job: JobSpec::Hpcg {
                size: 8,
                levels: 2,
                iters: 3,
            },
        });
        round_trip_request(Request {
            tenant: "ops".into(),
            backend: BackendSpec::Seq,
            job: JobSpec::Stats,
        });
    }

    #[test]
    fn stats_responses_round_trip() {
        let resp = Response::Ok {
            payload: Payload::Stats(r#"{"jobs_ok":3,"histograms":{}}"#.to_string()),
            meter: MeterSnapshot::default(),
        };
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        // A value with no short decimal form must survive the wire.
        let ugly = 1.0 / 3.0 + 1e-17;
        let resp = Response::Ok {
            payload: Payload::Solve {
                iterations: 7,
                relative_residual: ugly,
                x: vec![f64::INFINITY, -0.0, 2.5e-300],
            },
            meter: MeterSnapshot {
                modeled_secs: 1.25e-3,
                h_bytes: 4096.0,
                supersteps: 12,
                jobs: 3,
                plan_hits: 5,
                plan_misses: 1,
                frontier_push: 9,
                frontier_pull: 4,
            },
        };
        let line = resp.to_line();
        let back = Response::parse_line(&line).unwrap();
        match (&resp, &back) {
            (
                Response::Ok {
                    payload:
                        Payload::Solve {
                            relative_residual: a,
                            x: xa,
                            ..
                        },
                    ..
                },
                Response::Ok {
                    payload:
                        Payload::Solve {
                            relative_residual: b,
                            x: xb,
                            ..
                        },
                    ..
                },
            ) => {
                assert_eq!(a.to_bits(), b.to_bits());
                for (va, vb) in xa.iter().zip(xb) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
            _ => panic!("shape changed over the wire"),
        }
        assert_eq!(back, resp);
    }

    #[test]
    fn error_responses_round_trip() {
        let e = ServeError::Overloaded { bound: 9 };
        let resp = Response::from_error(&e);
        let back = Response::parse_line(&resp.to_line()).unwrap();
        assert_eq!(back.into_result().unwrap_err(), e);
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        let e = Request::parse_line("req acme gpu mxv a 1,2").unwrap_err();
        assert!(e.to_string().contains("gpu"), "got: {e}");
        let e = Request::parse_line("req acme seq warp a").unwrap_err();
        assert!(e.to_string().contains("warp"), "got: {e}");
        let e = Request::parse_line("req acme seq mxv a 1,x").unwrap_err();
        assert!(e.to_string().contains('x'), "got: {e}");
        let e = Request::parse_line("req onlytenant").unwrap_err();
        assert!(e.to_string().contains("missing"), "got: {e}");
        let e = Request::parse_line("req t seq bfs a 0 junk").unwrap_err();
        assert!(e.to_string().contains("trailing"), "got: {e}");
    }

    #[test]
    fn backend_spec_parsing() {
        assert_eq!(BackendSpec::parse("seq").unwrap(), BackendSpec::Seq);
        assert_eq!(BackendSpec::parse(" PAR ").unwrap(), BackendSpec::Par);
        assert_eq!(BackendSpec::parse("dist:3").unwrap(), BackendSpec::Dist(3));
        assert!(BackendSpec::parse("dist").is_err(), "no default node count");
        assert!(BackendSpec::parse("dist:0").is_err());
        assert!(BackendSpec::parse("dist:x").is_err());
        assert!(BackendSpec::parse("").is_err());
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello world").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "second frame").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "hello world");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_reader_rejects_garbage() {
        let mut r = std::io::Cursor::new(b"999999999999999999 x\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "oversized length");
        let mut r = std::io::Cursor::new(b"abc def\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "non-numeric length");
        let mut r = std::io::Cursor::new(b"10 short\n".to_vec());
        assert!(read_frame(&mut r).is_err(), "truncated payload");
        let mut r = std::io::Cursor::new(b"2 abX".to_vec());
        assert!(read_frame(&mut r).is_err(), "missing newline terminator");
    }
}
