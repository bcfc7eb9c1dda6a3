(** The [tamoptd] wire protocol: newline-delimited JSON.

    One request per line, one response line per request, in order, per
    connection. Both sides ride on {!Soctam_obs.Json}; a line that does
    not parse as exactly one JSON object produces an [ok:false] error
    reply with code ["bad_request"] — never a silently-misread request.

    Requests carry an [op] plus op-specific fields. An optional [id]
    (any JSON value) is echoed verbatim in the reply so pipelining
    clients can match responses. An optional [trace_id] (a string of at
    most {!max_trace_id_len} bytes) is echoed in the reply {e and}
    stamped on the server's structured log event for the request, so a
    client can correlate its observed latency with the server-side
    record; when absent the server generates one and returns it.

    {v
    {"id":1,"op":"solve","soc":"s1","solver":"ilp","num_buses":2,
     "total_width":16,"model":"serialization","d_max":12.5,
     "p_max":900,"deadline_ms":500}
    {"id":2,"op":"sweep","soc":"rnd:7:6","solver":"exact",
     "num_buses":2,"widths":[8,16,24]}
    {"id":3,"op":"stats"}   {"op":"ping"}   {"op":"health"}
    {"op":"shutdown"}   {"op":"sleep","ms":50}
    v}

    [soc] is a benchmark spec string (["s1"], ["rnd:<seed>:<n>"],
    ["file:<path>"]) or an inline object
    [{"name":…,"cores":[{"name":…,"inputs":…,"outputs":…,"patterns":…,
    "ff":…,"chains":…,"power_mw":…,"dim_mm":[w,h]},…]}] — [ff]/[chains]
    default to a combinational core, [power_mw]/[dim_mm] to the
    synthesized {!Soctam_soc.Benchmarks} values, exactly like the
    textual {!Soctam_soc.Soc_file} format.

    [sleep] exists for load and admission-control testing: it occupies
    a worker for [ms] milliseconds and returns [{"slept_ms":…}].

    [health] is for load balancers: it bypasses admission control (like
    [ping] and [stats]) and returns
    [{"status":"ok"|"stopping","uptime_s":…,"inflight":…}] so a probe
    can distinguish a draining daemon from a dead one.

    Replies: [{"id":…,"ok":true,"cached":…,"elapsed_ms":…,"result":…}]
    where solve/sweep results use the row schema of
    [tamopt sweep --json] ([rows] + [totals]), or
    [{"id":…,"ok":false,"error":{"code":…,"message":…}}] with codes
    ["bad_request"], ["overloaded"], ["shutting_down"] or
    ["internal"].

    {b Streaming.} A solve/sweep request with ["stream": true] and the
    ["race"] or ["pack"] solver receives zero or more {e event} lines
    before its final reply, one per improving incumbent the portfolio
    publishes:
    [{"id":…,"event":"incumbent","test_time":…,"engine":…,
    "elapsed_ms":…}]. Event lines never carry an ["ok"] member, so a
    reader takes lines until {!is_final_reply} — the response-per-line
    pairing still holds for the final reply, and the certified (or
    deadline-expired best-found) verdict is always last. Cached hits
    stream nothing: the incumbent trajectory is a property of a solve,
    not of its reused answer. *)

type solver = Exact | Ilp | Heuristic | Race | Pack

type soc_spec =
  | Named of string  (** Benchmark spec string, resolved server-side. *)
  | Inline of Soctam_soc.Soc.t

type instance = {
  soc_spec : soc_spec;
  solver : solver;
  num_buses : int;
  total_width : int;
  time_model : Soctam_soc.Test_time.model;
  d_max_mm : float option;
      (** Layout budget: derive exclusion pairs from the floorplan. *)
  p_max_mw : float option;
      (** Power budget: derive co-assignment pairs; the [Pack] solver
          additionally enforces it as an instantaneous envelope on the
          packed schedule. *)
}

type request =
  | Solve of {
      instance : instance;
      deadline_ms : float option;
      stream : bool;
          (** Push incumbent events (race and pack solvers only). *)
    }
  | Sweep of {
      instance : instance;  (** [total_width] is [max widths]. *)
      widths : int list;
      deadline_ms : float option;
      stream : bool;
    }
  | Stats
  | Ping
  | Health
  | Sleep of { ms : float }
  | Shutdown

val solver_name : solver -> string

(** Upper bound on the byte length of a wire [trace_id] ([64]).
    Longer ids are a [bad_request]. *)
val max_trace_id_len : int

(** [trace_id_of json] extracts and validates the optional [trace_id]
    field of a request object: [Ok None] when absent or [null],
    [Ok (Some s)] for a string within {!max_trace_id_len} bytes,
    [Error _] for any other type or an oversized string. Content is
    {e not} restricted — JSON escaping makes any byte sequence safe to
    echo and log. *)
val trace_id_of : Soctam_obs.Json.t -> (string option, string) result

(** [id_of json] is the request's [id] field, [Null] when absent or the
    line was not an object. *)
val id_of : Soctam_obs.Json.t -> Soctam_obs.Json.t

(** [parse_request json] validates one request object. Errors are
    human-readable reasons ("solve: num_buses must be a positive
    integer", …). *)
val parse_request :
  Soctam_obs.Json.t -> (request, string) result

(** [solver_of_string name] inverts {!solver_name}; [model_of_string]
    reads ["serialization"] or ["scan"]. The wire's ["solver"] and
    ["model"] fields and the [tamopt] flags of the same names both
    parse through them. An [Error] reads ["must be …"], for the caller
    to prefix with the field or flag it came from. *)
val solver_of_string : string -> (solver, string) result

val model_of_string : string -> (Soctam_soc.Test_time.model, string) result

(** [resolve_soc spec] materializes the SOC: [Inline] as-is, [Named]
    through the spec grammar (["s1"]/["s2"]/["s3"],
    ["rnd:<seed>:<n>"], ["file:<path>"]) that [tamopt --soc] also
    reads through it. Errors are human-readable and become
    [bad_request] replies. *)
val resolve_soc : soc_spec -> (Soctam_soc.Soc.t, string) result

(** [constraints_of ~d_max_mm ~p_max_mw soc] derives an instance's
    structural constraints from its budgets: exclusion pairs for cores
    further apart than [d_max_mm] on [soc]'s floorplan, co-assignment
    pairs for core pairs whose summed power exceeds [p_max_mw]. The
    daemon and [tamopt] both derive them here. *)
val constraints_of :
  d_max_mm:float option ->
  p_max_mw:float option ->
  Soctam_soc.Soc.t ->
  Soctam_core.Problem.constraints

(** [json_of_request ?id req] renders a request the daemon parses back
    — the client half of the protocol, used by [tamopt load]/[rpc] and
    the tests. *)
val json_of_request :
  ?id:Soctam_obs.Json.t -> ?trace_id:string -> request -> Soctam_obs.Json.t

(** Reply constructors (one line each, compact rendering). *)

(** [source] names which tier produced a work reply —
    ["lru"], ["store"] or ["solve"] — mirroring the request log's
    provenance field. *)
val ok_reply :
  id:Soctam_obs.Json.t ->
  ?trace_id:string ->
  ?cached:bool ->
  ?source:string ->
  ?elapsed_ms:float ->
  Soctam_obs.Json.t ->
  Soctam_obs.Json.t

val error_reply :
  id:Soctam_obs.Json.t ->
  ?trace_id:string ->
  code:string ->
  string ->
  Soctam_obs.Json.t

(** One streamed incumbent event line (see {e Streaming} above). *)
val incumbent_event :
  id:Soctam_obs.Json.t ->
  ?trace_id:string ->
  test_time:int ->
  engine:string ->
  elapsed_ms:float ->
  unit ->
  Soctam_obs.Json.t

(** [is_final_reply json] — [true] for a reply (it has an ["ok"]
    member) or any non-object, [false] for an event line. Clients use
    it to read a streamed exchange to completion. *)
val is_final_reply : Soctam_obs.Json.t -> bool

(** [reply_code reply] — ["ok"] for an [ok:true] reply, else the
    reply's error code, and ["internal"] when it carries none. *)
val reply_code : Soctam_obs.Json.t -> string
