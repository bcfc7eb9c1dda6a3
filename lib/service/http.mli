(** Minimal HTTP side listener for metrics scrapes and health probes.

    Serves exactly three resources over HTTP/1.0-style
    one-request-per-connection exchanges:

    - [GET /metrics] — {!Service.metrics_text}, Prometheus text
      exposition (version 0.0.4);
    - [GET /health] — {!Service.health_json}, status 200 while serving
      and 503 once shutdown has been requested (load balancers read the
      status code, humans read the body);
    - anything else — 404.

    The implementation is deliberately tiny (request line + headers are
    read and discarded, the response closes the connection) — enough
    for a scraper, not a web server. Runs on the same accept-loop
    pattern as {!Server}: polls {!Service.shutdown_requested} between
    accepts and returns when the daemon begins draining, so [tamoptd]
    runs it on a plain background thread. *)

(** [serve ?on_bound ~service addr] blocks until shutdown is requested.
    The listen backlog is 16. Raises [Unix.Unix_error] when the address
    cannot be bound. *)
val serve :
  ?on_bound:(unit -> unit) -> service:Service.t -> Addr.t -> unit
