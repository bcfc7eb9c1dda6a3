(** The daemon engine: admission control, result cache, dispatch.

    A {!t} is transport-agnostic — {!Server} feeds it request lines
    from sockets, the tests feed it strings directly. One call to
    {!handle_line} processes one NDJSON request and returns the one
    response line (without the trailing newline), blocking the calling
    thread until the result is ready; concurrency comes from calling it
    from many threads (one per connection). A solve or sweep is
    resolved, keyed and looked up in the cache on the calling thread;
    a hit is answered there, and only a miss is fanned out to the
    {!Soctam_engine.Pool} worker domains via [Pool.submit].

    {b Admission control.} Admission covers cache misses and [sleep]s:
    at most [queue_capacity] of them may be admitted-but-incomplete at
    once; request number [queue_capacity + 1] is shed {e immediately}
    with an ["overloaded"] error reply instead of queuing unboundedly —
    the client sees explicit backpressure, the daemon's memory stays
    bounded, and waiting work can never starve the protocol ops (ping /
    stats / shutdown), which bypass admission. A cache hit takes no
    slot and is never shed by a full queue.

    {b Result cache.} Solve and sweep results are cached under their
    {!Canon} canonical key (permutation-invariant over cores, content
    not spelling), in canonical core order, and mapped back through the
    request's permutation on a hit. Only {e complete} results are
    cached: ILP rows that lost their optimality claim to a deadline or
    node budget are recomputed next time rather than served stale.

    {b Deadlines.} A request's [deadline_ms] starts at {!handle_line}
    entry, so queue wait counts against it; only misses wait in the
    queue, and a hit is served even past its deadline. A miss whose
    deadline expires before its solver starts gets a
    ["deadline_exceeded"] error; an ILP solve that starts in time
    self-limits through {!Soctam_core.Ilp_formulation.solve}'s deadline
    path and returns a best-found ([optimal = false]) row. A race solve behaves the same
    way: every portfolio engine observes the deadline cooperatively
    and the reply carries the best incumbent found so far with the
    partial verdict [optimal = false] — anytime behavior over the same
    wire.

    {b Telemetry.} Latencies (hit / miss end-to-end, queue wait, solver
    wall time) land in windowless {!Soctam_obs.Hist} histograms. Queue
    wait covers admitted requests only, timed from admission to a
    worker picking the request up. The [stats] reply and
    {!metrics_text} report p50/p95/p99/p999 over {e every} sample since
    startup, not a recent window. With a logger
    attached, every request line produces one structured NDJSON event
    carrying its trace id: client-supplied (validated by
    {!Protocol.trace_id_of}) or server-generated, echoed in the reply
    either way. Race-solver row wins are counted per engine. *)

type t

(** [create ?cache_capacity ?queue_capacity ?log ?store ~pool ()] —
    defaults: cache 256 entries, queue 64 requests, no request log, no
    persistent store. The pool is borrowed, not owned: the caller
    shuts it down after {!drain}. [store] attaches a
    {!Soctam_store.Store} as a second cache tier under the LRU: lookup
    order is LRU → store → solve, and a fresh optimal result is
    appended to the store {e before} it enters the LRU, so an eviction
    demotes a key to a store hit rather than a re-solve. The store is
    likewise borrowed: close it after {!drain}. Replies and request-log
    events carry the serving tier as [source:"lru"|"store"|"solve"]. *)
val create :
  ?cache_capacity:int ->
  ?queue_capacity:int ->
  ?log:Soctam_obs.Log.t ->
  ?store:Soctam_store.Store.t ->
  pool:Soctam_engine.Pool.t ->
  unit -> t

(** Process one request line; returns the response line. Never raises:
    malformed input, validation failures and solver exceptions all
    become [ok:false] replies.

    [emit] receives any intermediate event lines (without trailing
    newline) a streamed race solve pushes {e before} this call
    returns — see the {e Streaming} section of {!Protocol}. It is
    called from a pool worker domain while the calling thread is
    parked, so a transport can write each line straight to its
    connection without racing the final reply. Cache hits, answered on
    the calling thread, and non-race or non-streamed requests emit
    nothing. *)
val handle_line : ?emit:(string -> unit) -> t -> string -> string

(** True once a [shutdown] request has been accepted; subsequent work
    requests are refused with ["shutting_down"]. *)
val shutdown_requested : t -> bool

(** Block until no admitted request is in flight. *)
val drain : t -> unit

(** The [stats] reply body: uptime, queue depth, request counters,
    cache counters, latency percentiles (ms, including p999) and
    per-engine race wins. *)
val stats_json : t -> Soctam_obs.Json.t

(** The [health] reply body: [status] (["ok"] / ["stopping"]),
    uptime, in-flight count, queue capacity. Cheap — safe for a load
    balancer probing every second. *)
val health_json : t -> Soctam_obs.Json.t

(** Prometheus text exposition (version 0.0.4) of the service's
    counters, gauges and latency histograms — the body {!Http} serves
    on [GET /metrics]. *)
val metrics_text : t -> string
