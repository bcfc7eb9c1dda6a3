module Json = Soctam_obs.Json
module Obs = Soctam_obs.Obs
module Hist = Soctam_obs.Hist
module Log = Soctam_obs.Log
module Export = Soctam_obs.Export
module Clock = Soctam_obs.Clock
module Soc = Soctam_soc.Soc
module Architecture = Soctam_core.Architecture
module Rect_sched = Soctam_sched.Rect_sched
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Race = Soctam_engine.Race
module Store = Soctam_store.Store

type t = {
  pool : Pool.t;
  cache : Sweep.row list Lru.t;
  (* Second cache tier: disk-backed, content-addressed by the same
     canon key, shared across daemon processes and restarts. *)
  store : Store.t option;
  queue_capacity : int;
  log : Log.t option;
  mutex : Mutex.t;
  idle : Condition.t;  (* signalled when [active] drops to 0 *)
  mutable active : int;  (* admitted work requests not yet completed *)
  mutable shutting_down : bool;
  mutable received : int;
  mutable malformed : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int;
  mutable trace_seq : int;  (* server-generated trace-id counter *)
  race_wins : (string, int) Hashtbl.t;  (* engine -> race rows won *)
  started_s : float;
  (* Log-bucketed, windowless, lock-free on the record path — every
     sample since startup contributes to the tail quantiles. *)
  hit_lat_ms : Hist.t;
  miss_lat_ms : Hist.t;
  store_hit_lat_ms : Hist.t;
  queue_wait_ms : Hist.t;
  solve_ms : Hist.t;
  mutable store_bad_rows : int;
      (* store docs that failed [Sweep.row_of_json]: served as misses *)
  mutable store_append_failed : int;  (* appends lost to an I/O error *)
}

let create ?(cache_capacity = 256) ?(queue_capacity = 64) ?log ?store ~pool
    () =
  if queue_capacity < 1 then
    invalid_arg "Service.create: queue_capacity < 1";
  {
    pool;
    cache = Lru.create ~capacity:cache_capacity ();
    store;
    queue_capacity;
    log;
    mutex = Mutex.create ();
    idle = Condition.create ();
    active = 0;
    shutting_down = false;
    received = 0;
    malformed = 0;
    shed = 0;
    completed = 0;
    failed = 0;
    trace_seq = 0;
    race_wins = Hashtbl.create 8;
    started_s = Clock.now_s ();
    hit_lat_ms = Hist.create ();
    miss_lat_ms = Hist.create ();
    store_hit_lat_ms = Hist.create ();
    queue_wait_ms = Hist.create ();
    solve_ms = Hist.create ();
    store_bad_rows = 0;
    store_append_failed = 0;
  }

let shutdown_requested t =
  Mutex.lock t.mutex;
  let s = t.shutting_down in
  Mutex.unlock t.mutex;
  s

let drain t =
  Mutex.lock t.mutex;
  while t.active > 0 do
    Condition.wait t.idle t.mutex
  done;
  Mutex.unlock t.mutex

(* ---- admission ---- *)

let try_admit t =
  Mutex.lock t.mutex;
  let verdict =
    if t.shutting_down then `Shutting_down
    else if t.active >= t.queue_capacity then begin
      t.shed <- t.shed + 1;
      `Overloaded
    end
    else begin
      t.active <- t.active + 1;
      `Admitted
    end
  in
  Mutex.unlock t.mutex;
  verdict

(* Count a work request's final reply; an admitted one also frees its
   slot. A hit takes no slot but still counts, so received = completed
   + failed + malformed + overloaded holds. *)
let finish t ~admitted reply =
  let ok = Protocol.reply_code reply = "ok" in
  Mutex.lock t.mutex;
  if admitted then t.active <- t.active - 1;
  if ok then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
  if t.active = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.mutex;
  reply

(* ---- per-request log note ----

   A request's reply is assembled in pieces, on the connection thread
   and, for an admitted miss, on a pool worker domain; the note collects
   what the structured log event needs and is read only after the reply
   is complete, on the connection thread. *)

type note = {
  mutable n_soc : string option;
  mutable n_solver : string option;
  mutable n_digest : string option;  (* canon key hash *)
  mutable n_cached : bool option;
  mutable n_source : string option;  (* "lru" | "store" | "solve" *)
  mutable n_optimal : bool option;
  mutable n_deadline_ms : float option;
  mutable n_queue_wait_ms : float option;
  mutable n_shed : string option;  (* admission verdict when not admitted *)
}

let fresh_note () =
  { n_soc = None;
    n_solver = None;
    n_digest = None;
    n_cached = None;
    n_source = None;
    n_optimal = None;
    n_deadline_ms = None;
    n_queue_wait_ms = None;
    n_shed = None }

let fresh_trace_id t =
  Mutex.lock t.mutex;
  let n = t.trace_seq in
  t.trace_seq <- n + 1;
  Mutex.unlock t.mutex;
  (* Startup-stamped so ids from successive daemon runs do not collide
     in one log file. *)
  Printf.sprintf "t%06x-%d"
    (int_of_float (t.started_s *. 1e3) land 0xFFFFFF)
    n

(* ---- instance assembly ---- *)

(* [Pack] carries the instance's power budget along as the
   instantaneous envelope (the same budget also derives co-pairs in
   [Protocol.constraints_of] — the pack solver serializes those AND
   bounds the summed profile). *)
let sweep_solver (inst : Protocol.instance) : Sweep.solver =
  match inst.Protocol.solver with
  | Protocol.Exact -> Sweep.Exact
  | Protocol.Ilp -> Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true }
  | Protocol.Heuristic -> Sweep.Heuristic
  | Protocol.Race -> Sweep.Race
  | Protocol.Pack -> Sweep.Pack { p_max_mw = inst.Protocol.p_max_mw }

(* Cached rows live in canonical core order; [`Store] maps a freshly
   solved request-order row in, [`Serve] maps a cached row out into the
   requester's own core order. Bus widths are bus-indexed, not
   core-indexed, so only the assignment moves — and, on [Pack] rows,
   the core id carried by each placement rectangle. *)
let remap_rows canon dir rows =
  (* [perm.(i)] = canonical position of request core [i]; a scalar core
     id maps forward on [`Store] and through the inverse on [`Serve]. *)
  let map_core =
    let perm = canon.Canon.perm in
    match dir with
    | `Store -> fun c -> perm.(c)
    | `Serve ->
        let inv = Array.make (Array.length perm) 0 in
        Array.iteri (fun i c -> inv.(c) <- i) perm;
        fun c -> inv.(c)
  in
  let remap_packing (p : Rect_sched.t) =
    let placements =
      List.map
        (fun (pl : Rect_sched.placement) ->
          { pl with Rect_sched.core = map_core pl.Rect_sched.core })
        p.Rect_sched.placements
    in
    let placements =
      List.sort
        (fun (a : Rect_sched.placement) (b : Rect_sched.placement) ->
          compare
            (a.Rect_sched.start, a.Rect_sched.wire_lo, a.Rect_sched.core)
            (b.Rect_sched.start, b.Rect_sched.wire_lo, b.Rect_sched.core))
        placements
    in
    { p with Rect_sched.placements }
  in
  List.map
    (fun (row : Sweep.row) ->
      let row =
        match row.Sweep.packing with
        | None -> row
        | Some p -> { row with Sweep.packing = Some (remap_packing p) }
      in
      match row.Sweep.solution with
      | None -> row
      | Some (arch, time) ->
          let assignment =
            match dir with
            | `Store -> Canon.store_perm canon arch.Architecture.assignment
            | `Serve -> Canon.apply_perm canon arch.Architecture.assignment
          in
          let arch =
            Architecture.make ~widths:(Array.copy arch.Architecture.widths)
              ~assignment
          in
          { row with Sweep.solution = Some (arch, time) })
    rows

let result_json ~soc ~(inst : Protocol.instance) rows =
  Json.Obj
    [ ("soc", Json.Str (Soc.name soc));
      ("solver", Json.Str (Protocol.solver_name inst.solver));
      ("num_buses", Json.int inst.num_buses);
      ("rows", Json.Arr (List.map Sweep.json_of_row rows));
      ("totals", Sweep.json_of_totals (Sweep.totals rows)) ]

let count_race_wins t rows =
  let any = ref false in
  List.iter
    (fun (row : Sweep.row) ->
      match row.Sweep.winner with
      | None -> ()
      | Some engine ->
          any := true;
          Mutex.lock t.mutex;
          Hashtbl.replace t.race_wins engine
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.race_wins engine));
          Mutex.unlock t.mutex)
    rows;
  !any

(* ---- persistent store tier ----

   Store documents hold rows in canonical core order — exactly what the
   LRU holds — so a store hit promotes straight into the LRU and serves
   through the same [`Serve] remap as a memory hit. Parsing is strict:
   a doc any row of which fails [Sweep.row_of_json] (schema drift,
   damage that slipped past the frame check under fault injection) is
   counted and treated as a miss, never served. *)

let store_doc_of_rows ~solver rows =
  Json.Obj
    [ ("solver", Json.Str solver);
      ("optimal", Json.Bool true);
      ("rows", Json.Arr (List.map Sweep.json_of_row rows)) ]

let rows_of_store_doc doc =
  match Json.member "rows" doc with
  | Some (Json.Arr items) ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | item :: rest -> (
            match Sweep.row_of_json item with
            | Ok row -> go (row :: acc) rest
            | Error _ -> None)
      in
      go [] items
  | _ -> None

let store_lookup t canon =
  match t.store with
  | None -> None
  | Some store -> (
      match Store.find store canon.Canon.key with
      | None -> None
      | Some doc -> (
          match rows_of_store_doc doc with
          | Some rows -> Some rows
          | None ->
              Mutex.lock t.mutex;
              t.store_bad_rows <- t.store_bad_rows + 1;
              Mutex.unlock t.mutex;
              None))

(* A failed append must not fail the solve it records: the error is
   counted, and the rows still reach the LRU and the reply. The cost is
   a re-solve once the LRU evicts the key. *)
let store_append t canon ~solver rows =
  match t.store with
  | None -> ()
  | Some store -> (
      try Store.add store canon.Canon.key (store_doc_of_rows ~solver rows)
      with Unix.Unix_error _ | Sys_error _ ->
        Mutex.lock t.mutex;
        t.store_append_failed <- t.store_append_failed + 1;
        Mutex.unlock t.mutex)

(* ---- request execution ----

   A solve or sweep is resolved, keyed and looked up in the LRU and the
   store on the connection thread that read it, before admission: a hit
   is answered there and never waits behind a solve. Only a miss, like a
   [sleep], is admitted and runs on a pool worker domain. *)

let elapsed_ms ~arrival = (Clock.now_s () -. arrival) *. 1000.0

(* The pooled part of a miss: the deadline check, the solve, the store
   append and the LRU put. *)
let solve t ~id ~trace_id ~note ~arrival ~(instance : Protocol.instance)
    ~deadline_ms ~stream ~emit ~soc ~cells ~canon =
  let deadline_s =
    Option.map (fun ms -> arrival +. (ms /. 1000.0)) deadline_ms
  in
  (* Incumbent events only flow for a streamed race or pack solve; the
     emit callback runs on the pool worker domain while the connection
     thread is parked in [run_on_pool], so writing to the connection
     cannot race the final reply. *)
  let on_event =
    match emit with
    | Some emit
      when stream
           && (instance.Protocol.solver = Protocol.Race
              || instance.Protocol.solver = Protocol.Pack) ->
        Some
          (fun (ev : Race.event) ->
            Obs.incr "svc.incumbent_event";
            emit
              (Json.to_string
                 (Protocol.incumbent_event ~id ?trace_id
                    ~test_time:ev.Race.test_time ~engine:ev.Race.engine
                    ~elapsed_ms:ev.Race.elapsed_ms ())))
    | _ -> None
  in
  let expired =
    match deadline_s with Some d -> Clock.now_s () >= d | None -> false
  in
  if expired then
    Protocol.error_reply ~id ?trace_id ~code:"deadline_exceeded"
      "deadline expired before the solver started"
  else
    let solve_t0 = Clock.now_s () in
    match
      Obs.span "svc.solve"
        ~args:
          [ ("soc", Soc.name soc);
            ("solver", Protocol.solver_name instance.solver);
            ("digest", canon.Canon.digest) ]
        (fun () -> Sweep.run ?deadline_s ?on_event cells)
    with
    | exception Invalid_argument msg ->
        Protocol.error_reply ~id ?trace_id ~code:"bad_request" msg
    | rows ->
        Hist.record t.solve_ms ((Clock.now_s () -. solve_t0) *. 1000.0);
        ignore (count_race_wins t rows : bool);
        note.n_optimal <- Some (List.for_all (fun r -> r.Sweep.optimal) rows);
        (* Only complete verdicts are cacheable: an ILP row that gave up
           on a deadline must not satisfy a later, more patient request.
           The store append comes FIRST: once the LRU holds the entry it
           can be evicted at any moment, so the record must already be
           durable — an LRU eviction then demotes the key to a store
           hit, and to a re-solve only if the append failed. *)
        (if List.for_all (fun r -> r.Sweep.optimal) rows then begin
           let canonical = remap_rows canon `Store rows in
           store_append t canon
             ~solver:(Protocol.solver_name instance.solver)
             canonical;
           Lru.put t.cache canon.Canon.key canonical
         end);
        let el = elapsed_ms ~arrival in
        Hist.record t.miss_lat_ms el;
        Protocol.ok_reply ~id ?trace_id ~cached:false ~source:"solve"
          ~elapsed_ms:el
          (result_json ~soc ~inst:instance rows)

(* Runs on the connection thread. [`Answer reply] is final: a hit, or a
   request refused before any solve. [`Admit run] is a miss; [run] is
   its pooled solve, reusing the cells and canon key built here. *)
let lookup t ~id ~trace_id ~note ~arrival ~(instance : Protocol.instance)
    ~widths ~deadline_ms ~op ~stream ~emit =
  note.n_solver <- Some (Protocol.solver_name instance.Protocol.solver);
  note.n_deadline_ms <- deadline_ms;
  match Protocol.resolve_soc instance.soc_spec with
  | Error msg ->
      `Answer (Protocol.error_reply ~id ?trace_id ~code:"bad_request" msg)
  | Ok soc -> (
      note.n_soc <- Some (Soc.name soc);
      match
        let constraints =
          Protocol.constraints_of ~d_max_mm:instance.d_max_mm
            ~p_max_mw:instance.p_max_mw soc
        in
        let solver = sweep_solver instance in
        let cells =
          Sweep.cells ~time_model:instance.time_model ~constraints ~solver
            soc ~num_buses:instance.num_buses ~widths
        in
        let extra =
          match op with
          | `Solve -> ""
          | `Sweep ->
              "widths="
              ^ String.concat "," (List.map string_of_int widths)
        in
        (* The pack envelope is a real input beyond the derived
           co-pairs (two budgets can induce the same pairs but
           different envelopes), so it must be part of the cache key. *)
        let extra =
          match (instance.Protocol.solver, instance.p_max_mw) with
          | Protocol.Pack, Some p ->
              Printf.sprintf "%s;pmax=%.17g" extra p
          | _ -> extra
        in
        let canon =
          Canon.of_instance ~extra ~soc ~time_model:instance.time_model
            ~constraints
            ~solver:(Sweep.solver_name solver)
            ~num_buses:instance.num_buses ~total_width:instance.total_width
            ()
        in
        (cells, canon)
      with
      | exception Invalid_argument msg ->
          `Answer (Protocol.error_reply ~id ?trace_id ~code:"bad_request" msg)
      | cells, canon -> (
          note.n_digest <- Some canon.Canon.digest;
          (* [rows] arrive in canonical core order (LRU entry or parsed
             store doc); the [`Serve] remap restores the requester's
             order, so a store hit is byte-identical to the fresh solve
             that populated it. A hit is served past its deadline: the
             answer is already paid for. *)
          let serve ~source ~hist rows =
            note.n_cached <- Some true;
            note.n_source <- Some source;
            note.n_optimal <-
              Some (List.for_all (fun r -> r.Sweep.optimal) rows);
            let rows = remap_rows canon `Serve rows in
            let el = elapsed_ms ~arrival in
            Hist.record hist el;
            `Answer
              (Protocol.ok_reply ~id ?trace_id ~cached:true ~source
                 ~elapsed_ms:el
                 (result_json ~soc ~inst:instance rows))
          in
          match Lru.find t.cache canon.Canon.key with
          | Some rows ->
              Obs.incr "svc.cache_hit";
              serve ~source:"lru" ~hist:t.hit_lat_ms rows
          | None -> (
              match store_lookup t canon with
              | Some rows ->
                  Obs.incr "svc.store_hit";
                  (* Promote: the next identical request is a memory
                     hit. Store docs are optimal-only by the append
                     policy in [solve], matching the LRU's invariant. *)
                  Lru.put t.cache canon.Canon.key rows;
                  serve ~source:"store" ~hist:t.store_hit_lat_ms rows
              | None ->
                  Obs.incr "svc.cache_miss";
                  note.n_cached <- Some false;
                  note.n_source <- Some "solve";
                  `Admit
                    (fun () ->
                      solve t ~id ~trace_id ~note ~arrival ~instance
                        ~deadline_ms ~stream ~emit ~soc ~cells ~canon))))

let plan t ~id ~trace_id ~note ~arrival ~emit request =
  match request with
  | Protocol.Sleep { ms } ->
      `Admit
        (fun () ->
          Unix.sleepf (ms /. 1000.0);
          Protocol.ok_reply ~id ?trace_id
            ~elapsed_ms:(elapsed_ms ~arrival)
            (Json.Obj [ ("slept_ms", Json.Num ms) ]))
  | Protocol.Solve { instance; deadline_ms; stream } ->
      lookup t ~id ~trace_id ~note ~arrival ~instance
        ~widths:[ instance.total_width ] ~deadline_ms ~op:`Solve ~stream
        ~emit
  | Protocol.Sweep { instance; widths; deadline_ms; stream } ->
      lookup t ~id ~trace_id ~note ~arrival ~instance ~widths ~deadline_ms
        ~op:`Sweep ~stream ~emit
  | Protocol.Ping | Protocol.Stats | Protocol.Health | Protocol.Shutdown ->
      (* Protocol ops never reach admission. *)
      assert false

(* Run on a worker domain, parking the connection thread until the
   reply is ready; an exception becomes an "internal" reply. *)
let run_on_pool t ~id ~trace_id ~note f =
  let admitted = Clock.now_s () in
  try
    Pool.run t.pool (fun () ->
        (* Time from admission to a worker picking the task up: the
           admission queue's contribution to latency. A miss's lookup on
           the connection thread came before admission, so it is not
           counted here. *)
        let wait_ms = elapsed_ms ~arrival:admitted in
        Hist.record t.queue_wait_ms wait_ms;
        note.n_queue_wait_ms <- Some wait_ms;
        f ())
  with e ->
    Protocol.error_reply ~id ?trace_id ~code:"internal" (Printexc.to_string e)

(* ---- stats ---- *)

let race_wins_alist t =
  Mutex.lock t.mutex;
  let wins = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.race_wins [] in
  Mutex.unlock t.mutex;
  List.sort compare wins

let stats_json t =
  Mutex.lock t.mutex;
  let received = t.received
  and malformed = t.malformed
  and shed = t.shed
  and completed = t.completed
  and failed = t.failed
  and active = t.active
  and shutting_down = t.shutting_down in
  Mutex.unlock t.mutex;
  let cache = Lru.stats t.cache in
  let gc = Gc.quick_stat () in
  let store_fields =
    match t.store with
    | None -> []
    | Some store ->
        let s = Store.stats store in
        [ ( "store",
            Json.Obj
              [ ("dir", Json.Str (Store.dir store));
                ("hits", Json.int s.Store.hits);
                ("misses", Json.int s.Store.misses);
                ("appends", Json.int s.Store.appends);
                ("recovered", Json.int s.Store.recovered);
                ("corrupt_frames", Json.int s.Store.corrupt_frames);
                ("torn_bytes", Json.int s.Store.torn_bytes);
                ("rescans", Json.int s.Store.rescans);
                ("compactions", Json.int s.Store.compactions);
                ("segments", Json.int s.Store.segments);
                ("live", Json.int s.Store.live);
                ("bytes", Json.int s.Store.bytes);
                ("bad_rows", Json.int t.store_bad_rows);
                ("append_failed", Json.int t.store_append_failed) ] ) ]
  in
  Json.Obj
    ([ ("uptime_s", Json.Num (Clock.now_s () -. t.started_s));
      ("shutting_down", Json.Bool shutting_down);
      ( "queue",
        Json.Obj
          [ ("depth", Json.int active);
            ("capacity", Json.int t.queue_capacity) ] );
      ( "requests",
        Json.Obj
          [ ("received", Json.int received);
            ("completed", Json.int completed);
            ("failed", Json.int failed);
            ("malformed", Json.int malformed);
            ("overloaded", Json.int shed) ] );
      ( "cache",
        Json.Obj
          [ ("hits", Json.int cache.Lru.hits);
            ("misses", Json.int cache.Lru.misses);
            ("evictions", Json.int cache.Lru.evictions);
            ("length", Json.int cache.Lru.length);
            ("capacity", Json.int cache.Lru.capacity) ] );
      ( "latency",
        Json.Obj
          (List.map
             (fun (name, h) -> (name, Hist.summary_json (Hist.snapshot h)))
             [ ("hit", t.hit_lat_ms);
               ("store_hit", t.store_hit_lat_ms);
               ("miss", t.miss_lat_ms);
               ("queue_wait", t.queue_wait_ms);
               ("solve", t.solve_ms) ]) );
      ( "race_wins",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.int v)) (race_wins_alist t)) );
      ( "pool",
        Json.Obj
          [ ("workers", Json.int (Pool.workers t.pool));
            ("max_workers", Json.int (Pool.num_domains t.pool - 1)) ] );
      ( "gc",
        Json.Obj
          [ ("heap_words", Json.int gc.Gc.heap_words);
            ("top_heap_words", Json.int gc.Gc.top_heap_words);
            ("minor_collections", Json.int gc.Gc.minor_collections);
            ("major_collections", Json.int gc.Gc.major_collections) ] )
    ]
    @ store_fields)

let health_json t =
  Mutex.lock t.mutex;
  let active = t.active and shutting_down = t.shutting_down in
  Mutex.unlock t.mutex;
  Json.Obj
    [ ("status", Json.Str (if shutting_down then "stopping" else "ok"));
      ("uptime_s", Json.Num (Clock.now_s () -. t.started_s));
      ("inflight", Json.int active);
      ("queue_capacity", Json.int t.queue_capacity) ]

(* ---- Prometheus exposition ---- *)

let metrics_text t =
  Mutex.lock t.mutex;
  let received = t.received
  and malformed = t.malformed
  and shed = t.shed
  and completed = t.completed
  and failed = t.failed
  and active = t.active
  and shutting_down = t.shutting_down in
  Mutex.unlock t.mutex;
  let cache = Lru.stats t.cache in
  let f = float_of_int in
  let store_metrics =
    match t.store with
    | None -> []
    | Some store ->
        let s = Store.stats store in
        [ Export.Counter
            { name = "tamoptd_store_events_total";
              help = "Persistent result store events.";
              series =
                [ ([ ("event", "hit") ], f s.Store.hits);
                  ([ ("event", "miss") ], f s.Store.misses);
                  ([ ("event", "append") ], f s.Store.appends);
                  ([ ("event", "recovered") ], f s.Store.recovered);
                  ([ ("event", "corrupt_frame") ], f s.Store.corrupt_frames);
                  ([ ("event", "rescan") ], f s.Store.rescans);
                  ([ ("event", "compaction") ], f s.Store.compactions);
                  ([ ("event", "bad_rows") ], f t.store_bad_rows);
                  ([ ("event", "append_failed") ], f t.store_append_failed)
                ] };
          Export.Gauge
            { name = "tamoptd_store_segments";
              help = "Segment files in the persistent store.";
              series = [ ([], f s.Store.segments) ] };
          Export.Gauge
            { name = "tamoptd_store_live_records";
              help = "Distinct keys indexed in the persistent store.";
              series = [ ([], f s.Store.live) ] };
          Export.Gauge
            { name = "tamoptd_store_bytes";
              help = "On-disk bytes across store segments.";
              series = [ ([], f s.Store.bytes) ] } ]
  in
  Export.render
    ([ Export.Counter
        { name = "tamoptd_requests_total";
          help = "Requests by final disposition.";
          series =
            [ ([ ("result", "completed") ], f completed);
              ([ ("result", "failed") ], f failed);
              ([ ("result", "malformed") ], f malformed);
              ([ ("result", "shed") ], f shed) ] };
      Export.Counter
        { name = "tamoptd_requests_received_total";
          help = "Request lines received (including malformed).";
          series = [ ([], f received) ] };
      Export.Gauge
        { name = "tamoptd_inflight";
          help = "Admitted requests not yet completed.";
          series = [ ([], f active) ] };
      Export.Gauge
        { name = "tamoptd_queue_capacity";
          help = "Admission queue capacity.";
          series = [ ([], f t.queue_capacity) ] };
      Export.Gauge
        { name = "tamoptd_shutting_down";
          help = "1 while draining for shutdown.";
          series = [ ([], if shutting_down then 1.0 else 0.0) ] };
      Export.Gauge
        { name = "tamoptd_uptime_seconds";
          help = "Seconds since service start.";
          series = [ ([], Clock.now_s () -. t.started_s) ] };
      Export.Counter
        { name = "tamoptd_cache_events_total";
          help = "Result cache events.";
          series =
            [ ([ ("event", "hit") ], f cache.Lru.hits);
              ([ ("event", "miss") ], f cache.Lru.misses);
              ([ ("event", "eviction") ], f cache.Lru.evictions) ] };
      Export.Gauge
        { name = "tamoptd_cache_entries";
          help = "Resident result cache entries.";
          series = [ ([], f cache.Lru.length) ] };
      Export.Counter
        { name = "tamoptd_race_wins_total";
          help = "Race-solver rows won, by engine.";
          series =
            List.map
              (fun (engine, wins) -> ([ ("engine", engine) ], f wins))
              (race_wins_alist t) };
      Export.Histogram
        { name = "tamoptd_request_latency_ms";
          help = "End-to-end work-request latency, by cache disposition.";
          series =
            [ ([ ("cache", "hit") ], Hist.snapshot t.hit_lat_ms);
              ([ ("cache", "store") ], Hist.snapshot t.store_hit_lat_ms);
              ([ ("cache", "miss") ], Hist.snapshot t.miss_lat_ms) ] };
      Export.Histogram
        { name = "tamoptd_queue_wait_ms";
          help = "Admission-to-worker-pickup wait (admitted requests only).";
          series = [ ([], Hist.snapshot t.queue_wait_ms) ] };
      Export.Histogram
        { name = "tamoptd_solve_ms";
          help = "Solver wall time (cache misses only).";
          series = [ ([], Hist.snapshot t.solve_ms) ] } ]
    @ store_metrics)

(* ---- the line handler ---- *)

let count_malformed t =
  Mutex.lock t.mutex;
  t.malformed <- t.malformed + 1;
  Mutex.unlock t.mutex

let opt_field name conv = function
  | None -> []
  | Some v -> [ (name, conv v) ]

(* One NDJSON event per request line. Json escaping keeps the event on
   one line whatever bytes the client put in trace ids or SOC names. *)
let log_event t ~note ~trace_id ~op ~id ~deadline_slack reply ~duration_ms =
  match t.log with
  | None -> ()
  | Some log ->
      Log.event log
        ([ ("trace_id", Json.Str trace_id); ("op", Json.Str op) ]
        @ (match id with Json.Null -> [] | id -> [ ("id", id) ])
        @ opt_field "soc" (fun s -> Json.Str s) note.n_soc
        @ opt_field "solver" (fun s -> Json.Str s) note.n_solver
        @ opt_field "digest" (fun s -> Json.Str s) note.n_digest
        @ opt_field "cached" (fun b -> Json.Bool b) note.n_cached
        @ opt_field "source" (fun s -> Json.Str s) note.n_source
        @ opt_field "optimal" (fun b -> Json.Bool b) note.n_optimal
        @ opt_field "deadline_ms" (fun x -> Json.Num x) note.n_deadline_ms
        @ opt_field "slack_ms" (fun x -> Json.Num x) deadline_slack
        @ opt_field "queue_wait_ms"
            (fun x -> Json.Num x)
            note.n_queue_wait_ms
        @ opt_field "shed" (fun s -> Json.Str s) note.n_shed
        @ [ ("verdict", Json.Str (Protocol.reply_code reply));
            ("duration_ms", Json.Num duration_ms) ])

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Health -> "health"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Sleep _ -> "sleep"
  | Protocol.Solve _ -> "solve"
  | Protocol.Sweep _ -> "sweep"

(* A work request during shutdown is refused. Otherwise a hit, or a
   request refused before any solve, is answered on this thread and
   takes no slot; a miss or a sleep is admitted and runs on the pool. *)
let handle_work t ~id ~trace_id ~note ~arrival ~emit work =
  let refuse = function
    | `Shutting_down ->
        note.n_shed <- Some "shutting_down";
        Protocol.error_reply ~id ?trace_id ~code:"shutting_down"
          "daemon is stopping"
    | `Overloaded ->
        note.n_shed <- Some "queue_full";
        Protocol.error_reply ~id ?trace_id ~code:"overloaded"
          (Printf.sprintf "admission queue full (%d requests in flight)"
             t.queue_capacity)
  in
  if shutdown_requested t then refuse `Shutting_down
  else
    match plan t ~id ~trace_id ~note ~arrival ~emit work with
    | exception e ->
        finish t ~admitted:false
          (Protocol.error_reply ~id ?trace_id ~code:"internal"
             (Printexc.to_string e))
    | `Answer reply -> finish t ~admitted:false reply
    | `Admit run -> (
        match try_admit t with
        | (`Shutting_down | `Overloaded) as verdict -> refuse verdict
        | `Admitted ->
            finish t ~admitted:true (run_on_pool t ~id ~trace_id ~note run))

let handle_line ?emit t line =
  let arrival = Clock.now_s () in
  Mutex.lock t.mutex;
  t.received <- t.received + 1;
  Mutex.unlock t.mutex;
  let note = fresh_note () in
  (* op/trace for the log event; filled in once parsing succeeds. *)
  let logged_op = ref "invalid" in
  let logged_trace = ref None in
  let logged_id = ref Json.Null in
  let reply =
    match Json.parse line with
    | Error msg ->
        count_malformed t;
        Protocol.error_reply ~id:Json.Null ~code:"bad_request"
          ("invalid JSON: " ^ msg)
    | Ok json -> (
        let id = Protocol.id_of json in
        logged_id := id;
        match Protocol.trace_id_of json with
        | Error msg ->
            count_malformed t;
            Protocol.error_reply ~id ~code:"bad_request" msg
        | Ok client_trace -> (
            let trace_id =
              match client_trace with
              | Some s -> s
              | None -> fresh_trace_id t
            in
            logged_trace := Some trace_id;
            match Protocol.parse_request json with
            | Error msg ->
                count_malformed t;
                Protocol.error_reply ~id ~trace_id ~code:"bad_request" msg
            | Ok req -> (
                logged_op := op_name req;
                match req with
                | Protocol.Ping ->
                    Protocol.ok_reply ~id ~trace_id
                      (Json.Obj [ ("pong", Json.Bool true) ])
                | Protocol.Stats ->
                    Protocol.ok_reply ~id ~trace_id (stats_json t)
                | Protocol.Health ->
                    Protocol.ok_reply ~id ~trace_id (health_json t)
                | Protocol.Shutdown ->
                    Mutex.lock t.mutex;
                    t.shutting_down <- true;
                    Mutex.unlock t.mutex;
                    Protocol.ok_reply ~id ~trace_id
                      (Json.Obj [ ("stopping", Json.Bool true) ])
                | work ->
                    handle_work t ~id ~trace_id:(Some trace_id) ~note
                      ~arrival ~emit work)))
  in
  let duration_ms = elapsed_ms ~arrival in
  (match t.log with
  | None -> ()
  | Some _ ->
      let trace_id = Option.value ~default:"-" !logged_trace in
      let deadline_slack =
        Option.map (fun d -> d -. duration_ms) note.n_deadline_ms
      in
      log_event t ~note ~trace_id ~op:!logged_op ~id:!logged_id
        ~deadline_slack reply ~duration_ms);
  Json.to_string reply
