//! HTTP surface of the service, on the hardened `db-obsd` transport.
//!
//! | route             | body                                               |
//! |-------------------|----------------------------------------------------|
//! | `POST /ingest`    | `{"points": [[x, y, …], …]}` → absorb atomically;  |
//! |                   | receipt JSON, or `400`/`422` with the typed error  |
//! | `GET /label`      | `?point=x,y,…` → nearest-representative label from |
//! |                   | the cache                                          |
//! | `GET /ordering`   | the cached cluster ordering (per-representative)   |
//! | `GET /stats`      | live service stats JSON                            |
//! | `POST /recluster` | force a background recluster (cancels in-flight)   |
//! | anything else     | the `db-obsd` telemetry routes (`/metrics`,        |
//! |                   | `/healthz`, `/trace`)                              |

use std::net::SocketAddr;
use std::sync::Arc;

use db_obs::Json;
use db_obsd::{telemetry_response, HttpServer, ObsdError, Request, Response};
use db_optics::OrderingEntry;
use db_spatial::Dataset;

use crate::service::BubbleService;

/// Renders an f64 for a JSON response, mapping non-finite (OPTICS'
/// `UNDEFINED` reachability is `f64::INFINITY`) to `null`.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn error_body(kind: &str, detail: impl std::fmt::Display) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(kind.into())),
        ("detail".into(), Json::Str(detail.to_string())),
    ])
    .render()
}

fn handle_ingest(svc: &BubbleService, req: &Request) -> Response {
    let Some(text) = req.body_str() else {
        return Response::json(400, error_body("bad_body", "request body is not UTF-8"));
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::json(400, error_body("bad_json", e)),
    };
    let Some(points) = doc.get("points").and_then(Json::as_arr) else {
        return Response::json(400, error_body("bad_request", "missing \"points\" array"));
    };
    let dim = svc.dim();
    let mut batch = match Dataset::new(dim) {
        Ok(ds) => ds,
        Err(e) => return Response::json(500, error_body("internal", e)),
    };
    for (i, row) in points.iter().enumerate() {
        let Some(row) = row.as_arr() else {
            return Response::json(
                400,
                error_body("bad_request", format!("point {i} is not an array")),
            );
        };
        let mut coords = Vec::with_capacity(row.len());
        for (j, c) in row.iter().enumerate() {
            match c.as_f64() {
                // JSON cannot carry NaN/∞, so every parsed number is
                // finite; the absorb boundary re-checks anyway.
                Some(v) => coords.push(v),
                None => {
                    return Response::json(
                        400,
                        error_body(
                            "bad_request",
                            format!("point {i} coordinate {j} is not a number"),
                        ),
                    )
                }
            }
        }
        if let Err(e) = batch.push(&coords) {
            return Response::json(422, error_body("rejected", format!("point {i}: {e}")));
        }
    }
    // The parsed document is several times the size of the batch. Free it
    // before the absorb, so that it does not overlap the recluster the
    // ingest may start: otherwise the process's peak heap depends on
    // which thread runs first.
    drop(doc);
    match svc.ingest(&batch) {
        Ok(receipt) => Response::json(
            200,
            Json::Obj(vec![
                ("accepted".into(), Json::Int(receipt.accepted as i64)),
                ("n_objects".into(), Json::Int(receipt.n_objects as i64)),
                ("stale".into(), Json::Bool(receipt.stale)),
                (
                    "recluster_generation".into(),
                    receipt.recluster_started.map_or(Json::Null, |g| Json::Int(g as i64)),
                ),
            ])
            .render(),
        ),
        // Typed rejection from the absorb boundary; nothing was mutated.
        Err(e) => Response::json(422, error_body("rejected", e)),
    }
}

fn handle_label(svc: &BubbleService, req: &Request) -> Response {
    let Some(raw) = req.query_param("point") else {
        return Response::json(400, error_body("bad_request", "missing ?point=x,y,…"));
    };
    let mut point = Vec::new();
    for part in raw.split(',') {
        match part.trim().parse::<f64>() {
            Ok(v) => point.push(v),
            Err(_) => {
                return Response::json(
                    400,
                    error_body("bad_request", format!("not a number: {part:?}")),
                )
            }
        }
    }
    match svc.label(&point) {
        Ok(answer) => Response::json(
            200,
            Json::Obj(vec![
                ("label".into(), Json::Int(i64::from(answer.label))),
                ("representative".into(), Json::Int(answer.representative as i64)),
                ("distance".into(), num(answer.distance)),
                ("generation".into(), Json::Int(answer.generation as i64)),
            ])
            .render(),
        ),
        Err(e) => Response::json(422, error_body("rejected", e)),
    }
}

fn ordering_entry(e: &OrderingEntry) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Int(e.id as i64)),
        ("reachability".into(), num(e.reachability)),
        ("core_distance".into(), num(e.core_distance)),
        ("weight".into(), Json::Int(e.weight as i64)),
    ])
}

fn handle_ordering(svc: &BubbleService) -> Response {
    let art = svc.artifact();
    Response::json(
        200,
        Json::Obj(vec![
            ("generation".into(), Json::Int(art.generation as i64)),
            ("n_representatives".into(), Json::Int(art.output.n_representatives as i64)),
            (
                "ordering".into(),
                Json::Arr(art.output.rep_ordering.entries.iter().map(ordering_entry).collect()),
            ),
            (
                "rep_labels".into(),
                Json::Arr(art.rep_labels.iter().map(|&l| Json::Int(i64::from(l))).collect()),
            ),
        ])
        .render(),
    )
}

fn handle_stats(svc: &BubbleService) -> Response {
    let s = svc.stats();
    Response::json(
        200,
        Json::Obj(vec![
            ("k".into(), Json::Int(s.k as i64)),
            ("n_objects".into(), Json::Int(s.n_objects as i64)),
            ("total_mass".into(), Json::Int(s.total_mass as i64)),
            ("generation".into(), Json::Int(s.generation as i64)),
            ("absorbed_since_build".into(), Json::Int(s.absorbed_since_build as i64)),
            ("cache_age_s".into(), Json::Num(s.cache_age.as_secs_f64())),
            ("stale".into(), Json::Bool(s.stale)),
            ("recluster_in_flight".into(), Json::Bool(s.recluster_in_flight)),
        ])
        .render(),
    )
}

/// Routes one request against the service, falling back to the telemetry
/// routes. Pure function of `(service, request)` — compose it into a
/// larger handler (the `serve` binary adds `POST /shutdown`) or hand it
/// straight to [`HttpServer::start`] via [`ServeServer`].
pub fn service_response(svc: &BubbleService, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => handle_ingest(svc, req),
        ("GET", "/label") => handle_label(svc, req),
        ("GET", "/ordering") => handle_ordering(svc),
        ("GET", "/stats") => handle_stats(svc),
        ("POST", "/recluster") => {
            let generation = svc.force_recluster();
            Response::json(
                202,
                Json::Obj(vec![("recluster_generation".into(), Json::Int(generation as i64))])
                    .render(),
            )
        }
        (_, "/ingest" | "/label" | "/ordering" | "/stats" | "/recluster") => {
            Response::method_not_allowed()
        }
        _ => telemetry_response(req),
    }
}

/// A running service endpoint: [`service_response`] over an
/// [`HttpServer`].
#[derive(Debug)]
pub struct ServeServer {
    http: HttpServer,
    service: Arc<BubbleService>,
}

impl ServeServer {
    /// Binds `addr` and serves `service` in the background.
    ///
    /// # Errors
    ///
    /// [`ObsdError::Bind`] when the address cannot be bound.
    pub fn start(addr: &str, service: Arc<BubbleService>) -> Result<ServeServer, ObsdError> {
        let svc = Arc::clone(&service);
        let http = HttpServer::start(
            addr,
            "db-serve",
            Arc::new(move |req: &Request| service_response(&svc, req)),
        )?;
        Ok(ServeServer { http, service })
    }

    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The service behind the endpoint.
    pub fn service(&self) -> &Arc<BubbleService> {
        &self.service
    }

    /// Stops the HTTP listener, then the service's background recluster.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}
