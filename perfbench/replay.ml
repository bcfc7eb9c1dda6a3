(* The in-process replay that gives the per-layer numbers.

   It feeds a workload's set-up list and the head of its timed stream
   through the same public functions, in the same order, as
   [Service.work]: parse, SOC resolution, constraint derivation, cells,
   canon key, LRU, store, memo, solve, store append, LRU insert, remap
   and serialization. Each call is timed from outside as one span; the
   spans of one request share its request id. During a solve the
   existing [Obs] recording is switched on, so the solver-internal spans
   and counters already in the library ([ilp.*], [bb.*], [race.*],
   [simplex.*]) land in the same request.

   The replay runs twice on fresh state: once untraced (wall time, GC
   deltas, reply sizes) and once traced (spans). The difference of the
   two walls is the tracing overhead. *)

module Json = Soctam_obs.Json
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock
module Trace = Soctam_obs.Trace
module Memo = Soctam_soc.Memo
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Sweep = Soctam_engine.Sweep
module Protocol = Soctam_service.Protocol
module Canon = Soctam_service.Canon
module Lru = Soctam_service.Lru
module Store = Soctam_store.Store

(* Timed requests replayed after the set-up list. *)
let replay_count = function
  | "hot" -> 10_000
  | "ilp_cold" -> 150
  | _ -> 3_000

(* Replay requests written to the Chrome trace. *)
let trace_requests = 300

(* The unattributed share of request wall time allowed: the per-layer
   self times must cover the rest. *)
let tolerance_pct = 5.0

type span = { name : string; req : int; start : int; dur : int }

let now () = Int64.to_int (Clock.now_ns ())

(* ---- span recording ---- *)

let tracing = ref false
let spans : span list ref = ref []
let current = ref 0
let obs_metrics : (string, float) Hashtbl.t = Hashtbl.create 64

let timed name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    spans := { name; req = !current; start = t0; dur = now () - t0 } :: !spans;
    r
  end

(* A solve, with [Obs] recording on; its events join the request,
   clipped to the solve's own span. *)
let solving name f =
  if not !tracing then f ()
  else begin
    Obs.enable ();
    let base = now () in
    let r = timed name f in
    Obs.disable ();
    let parent = List.hd !spans in
    let stop = parent.start + parent.dur in
    let events, metrics = Obs.drain () in
    List.iter
      (fun (e : Obs.event) ->
        let start = max parent.start (base + Int64.to_int e.start_ns) in
        spans :=
          { name = e.name;
            req = !current;
            start;
            dur = max 0 (min (Int64.to_int e.dur_ns) (stop - start)) }
          :: !spans)
      events;
    List.iter
      (fun (m : Obs.metric) ->
        Hashtbl.replace obs_metrics m.name
          (m.total
          +. Option.value ~default:0.0 (Hashtbl.find_opt obs_metrics m.name)))
      metrics;
    r
  end

(* ---- the request path, as [Service.work] walks it ---- *)

type state = { lru : Sweep.row list Lru.t; store : Store.t option }

let sweep_solver (inst : Protocol.instance) : Sweep.solver =
  match inst.solver with
  | Protocol.Exact -> Sweep.Exact
  | Protocol.Ilp ->
      Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true }
  | Protocol.Heuristic -> Sweep.Heuristic
  | Protocol.Race -> Sweep.Race
  | Protocol.Pack -> Sweep.Pack { p_max_mw = inst.p_max_mw }

(* Cached rows are kept in canonical core order. *)
let remap canon dir rows =
  List.map
    (fun (row : Sweep.row) ->
      match row.solution with
      | None -> row
      | Some (arch, time) ->
          let assignment =
            match dir with
            | `Store -> Canon.store_perm canon arch.Architecture.assignment
            | `Serve -> Canon.apply_perm canon arch.Architecture.assignment
          in
          { row with
            solution =
              Some
                ( Architecture.make ~widths:(Array.copy arch.Architecture.widths)
                    ~assignment,
                  time ) })
    rows

let store_doc ~solver rows =
  Json.Obj
    [ ("solver", Json.Str solver);
      ("optimal", Json.Bool true);
      ("rows", Json.Arr (List.map Sweep.json_of_row rows)) ]

let rows_of_doc doc =
  match Json.member "rows" doc with
  | Some (Json.Arr items) ->
      List.map
        (fun j ->
          match Sweep.row_of_json j with Ok r -> r | Error m -> failwith m)
        items
  | _ -> failwith "store doc without rows"

let ok_or_fail = function Ok x -> x | Error m -> failwith m

type served = {
  reply : string;
  rows : Sweep.row list;
  source : char;  (** 'l', 's' or 'f' *)
}

let serve st line =
  let inst =
    timed "protocol.parse" (fun () ->
        match ok_or_fail (Protocol.parse_request (ok_or_fail (Json.parse line))) with
        | Protocol.Solve { instance; _ } -> instance
        | _ -> failwith "not a solve request")
  in
  let soc =
    timed "protocol.resolve_soc" (fun () ->
        ok_or_fail (Protocol.resolve_soc inst.soc_spec))
  in
  let constraints =
    timed "constraints.derive" (fun () -> Oracle.constraints_of soc inst)
  in
  let solver = sweep_solver inst in
  let cells =
    timed "sweep.cells" (fun () ->
        Sweep.cells ~time_model:inst.time_model ~constraints ~solver soc
          ~num_buses:inst.num_buses ~widths:[ inst.total_width ])
  in
  let canon =
    timed "canon.key" (fun () ->
        Canon.of_instance ~soc ~time_model:inst.time_model ~constraints
          ~solver:(Sweep.solver_name solver) ~num_buses:inst.num_buses
          ~total_width:inst.total_width ())
  in
  let key = canon.Canon.key in
  let rows, source =
    match timed "lru.find" (fun () -> Lru.find st.lru key) with
    | Some rows -> (rows, 'l')
    | None -> (
        let doc =
          match st.store with
          | None -> None
          | Some s -> timed "store.find" (fun () -> Store.find s key)
        in
        match doc with
        | Some doc ->
            let rows = timed "store.decode" (fun () -> rows_of_doc doc) in
            timed "lru.put" (fun () -> Lru.put st.lru key rows);
            (rows, 's')
        | None ->
            let memo =
              timed "memo.build" (fun () ->
                  Memo.build ~model:inst.time_model soc
                    ~max_width:inst.total_width)
            in
            let rows =
              List.map
                (fun cell ->
                  solving
                    ("solve." ^ Sweep.solver_name solver)
                    (fun () -> Sweep.solve_one ~memo cell))
                cells
            in
            if List.for_all (fun (r : Sweep.row) -> r.optimal) rows then begin
              let canonical = remap canon `Store rows in
              Option.iter
                (fun s ->
                  timed "store.add" (fun () ->
                      Store.add s key
                        (store_doc
                           ~solver:(Protocol.solver_name inst.solver)
                           canonical)))
                st.store;
              timed "lru.put" (fun () -> Lru.put st.lru key canonical)
            end;
            (rows, 'f'))
  in
  let reply =
    timed "service.serve" (fun () ->
        let rows = if source = 'f' then rows else remap canon `Serve rows in
        Json.to_string
          (Protocol.ok_reply ~id:Json.Null ~cached:(source <> 'f')
             ~source:
               (match source with 'l' -> "lru" | 's' -> "store" | _ -> "solve")
             ~elapsed_ms:0.0
             (Json.Obj
                [ ("soc", Json.Str (Soctam_soc.Soc.name soc));
                  ("solver", Json.Str (Protocol.solver_name inst.solver));
                  ("num_buses", Json.int inst.num_buses);
                  ("rows", Json.Arr (List.map Sweep.json_of_row rows));
                  ("totals", Sweep.json_of_totals (Sweep.totals rows)) ])))
  in
  { reply; rows; source }

(* ---- one pass ---- *)

type pass = {
  wall_ns : int array;  (** per timed request *)
  served : served array;  (** set-up list, then timed requests *)
  gc_minor : float;
  gc_major : float;
  gc_collections : int;
  lru_stats : Lru.stats;  (** over the timed requests only *)
  store_stats : Store.stats option;
}

let pass (w : Workload.t) ~dir ~count ~traced =
  let store_dir = Filename.concat dir (if traced then "traced" else "plain") in
  Daemon.rm_rf store_dir;
  let st =
    { lru = Lru.create ~capacity:w.cache ();
      store = (if w.store then Some (Store.open_store store_dir) else None) }
  in
  let nsetup = Array.length w.setup in
  let entries = Array.append w.setup (Array.sub w.stream 0 count) in
  let wall_ns = Array.make count 0 in
  let minor = ref 0.0 and major = ref 0.0 and colls = ref 0 in
  let lru0 = ref (Lru.stats st.lru) in
  tracing := false;
  let served =
    Array.mapi
      (fun i (e : Workload.entry) ->
        if i = nsetup then begin
          lru0 := Lru.stats st.lru;
          tracing := traced
        end;
        current := i;
        let g0 = Gc.quick_stat () in
        let t0 = now () in
        let s = timed "request" (fun () -> serve st e.line) in
        let t1 = now () in
        let g1 = Gc.quick_stat () in
        if i >= nsetup then begin
          wall_ns.(i - nsetup) <- t1 - t0;
          minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
          major := !major +. (g1.Gc.major_words -. g0.Gc.major_words);
          colls := !colls + g1.Gc.major_collections - g0.Gc.major_collections
        end;
        s)
      entries
  in
  tracing := false;
  let l1 = Lru.stats st.lru in
  let store_stats = Option.map Store.stats st.store in
  Option.iter Store.close st.store;
  Daemon.rm_rf store_dir;
  { wall_ns;
    served;
    gc_minor = !minor;
    gc_major = !major;
    gc_collections = !colls;
    lru_stats =
      { l1 with
        hits = l1.hits - !lru0.hits;
        misses = l1.misses - !lru0.misses;
        evictions = l1.evictions - !lru0.evictions };
    store_stats }

(* ---- self time and attribution ---- *)

let layer_of ~solver name =
  match String.index_opt name '.' with
  | None -> if name = "request" then "unattributed" else name
  | Some i -> (
      match String.sub name 0 i with
      | "protocol" | "constraints" | "canon" | "lru" | "store" | "memo"
      | "ilp" | "race" | "exact" | "pool" ->
          String.sub name 0 i
      | "bb" -> "branch_bound"
      | "heuristic" -> "heuristics"
      | "sweep" when name = "sweep.cells" -> "service"
      | "sweep" | "solve" -> solver
      | other -> other)

(* Self time of every span: its duration minus the part its direct
   children cover. [spans] are one request's, on one thread. *)
let self_times spans =
  let a = Array.of_list spans in
  Array.sort
    (fun x y ->
      if x.start <> y.start then compare x.start y.start else compare y.dur x.dur)
    a;
  let self = Array.map (fun s -> s.dur) a in
  let stop p = a.(p).start + a.(p).dur in
  let rec go stack i =
    if i < Array.length a then begin
      let s = a.(i) in
      let rec pop = function
        | p :: up when s.start >= stop p -> pop up
        | stack -> stack
      in
      let stack = pop stack in
      (match stack with
      | p :: _ -> self.(p) <- self.(p) - min s.dur (stop p - s.start)
      | [] -> ());
      go (i :: stack) (i + 1)
    end
  in
  go [] 0;
  Array.to_list (Array.mapi (fun i s -> (s, max 0 self.(i))) a)

(* ---- statistics ---- *)

let median xs = Drive.quantile 0.5 (Array.of_list xs)
let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> 0.0 | xs -> sum xs /. float (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- the whole replay ---- *)

type report = {
  metrics : (string * float) list;
  ownership : (string * float * (string * float) list) list;
      (** (percentile, wall ms, layers by share) *)
  fingerprint : (string * int) list;
  unattributed_pct : float;
  overhead_pct : float;
}

let run (w : Workload.t) ~dir ~trace_path =
  let count = min (replay_count w.name) (Array.length w.stream) in
  let nsetup = Array.length w.setup in
  (* Untraced passes on both sides of the traced one, so that warm-up
     is not counted as tracing overhead. *)
  let first = pass w ~dir ~count ~traced:false in
  Hashtbl.reset obs_metrics;
  spans := [];
  let traced = pass w ~dir ~count ~traced:true in
  let all_spans = !spans in
  spans := [];
  let plain = pass w ~dir ~count ~traced:false in
  let by_req = Hashtbl.create 4096 in
  List.iter
    (fun s -> Hashtbl.replace by_req s.req (s :: Option.value ~default:[] (Hashtbl.find_opt by_req s.req)))
    all_spans;
  let solver_of i =
    let e = if i < nsetup then w.setup.(i) else w.stream.(i - nsetup) in
    Protocol.solver_name e.Workload.inst.solver
  in
  (* Per span name: durations; per request: self time by layer. *)
  let durs = Hashtbl.create 64 in
  let add_dur name d =
    Hashtbl.replace durs name (d :: Option.value ~default:[] (Hashtbl.find_opt durs name))
  in
  let layer_self = Hashtbl.create 4096 in
  let unattributed = ref 0 and covered_wall = ref 0 in
  Hashtbl.iter
    (fun req ss ->
      List.iter (fun s -> add_dur s.name (float s.dur)) ss;
      let selves = self_times ss in
      let by_layer = Hashtbl.create 8 in
      List.iter
        (fun (s, self) ->
          let l = layer_of ~solver:(solver_of req) s.name in
          Hashtbl.replace by_layer l
            (self + Option.value ~default:0 (Hashtbl.find_opt by_layer l));
          if s.name = "request" then begin
            unattributed := !unattributed + self;
            covered_wall := !covered_wall + s.dur
          end)
        selves;
      Hashtbl.replace layer_self req by_layer)
    by_req;
  let us name = List.map (fun d -> d /. 1e3) (Option.value ~default:[] (Hashtbl.find_opt durs name)) in
  let ms name = List.map (fun d -> d /. 1e6) (Option.value ~default:[] (Hashtbl.find_opt durs name)) in
  let timed_served = Array.sub traced.served nsetup count in
  let timed_entries = Array.sub w.stream 0 count in
  let rows_of solver =
    List.concat
      (List.filteri
         (fun i _ ->
           timed_served.(i).source = 'f'
           && timed_entries.(i).Workload.inst.solver = solver)
         (Array.to_list (Array.map (fun s -> s.rows) timed_served)))
  in
  let ilp_rows = rows_of Protocol.Ilp and race_rows = rows_of Protocol.Race in
  let per_ilp f = mean (List.map (fun r -> float (f r)) ilp_rows) in
  let ilp_total f = sum (List.map (fun r -> float (f r)) ilp_rows) in
  let n_ilp = float (List.length ilp_rows) in
  let race_ms = ms "solve.race" in
  let best_single_ms =
    List.filter_map
      (fun i ->
        if timed_served.(i).source = 'f' && timed_entries.(i).Workload.inst.solver = Protocol.Race
        then begin
          let problem = Oracle.problem timed_entries.(i).Workload.inst in
          let t0 = now () in
          ignore (Exact.solve problem);
          Some (float (now () - t0) /. 1e6)
        end
        else None)
      (List.init count Fun.id)
  in
  let store_stats = traced.store_stats in
  let store_lookups =
    Array.fold_left (fun n s -> if s.source <> 'l' then n + 1 else n) 0 timed_served
  in
  let store_hits = Array.fold_left (fun n s -> if s.source = 's' then n + 1 else n) 0 timed_served in
  let fcount = float count in
  let wall p = Array.fold_left ( + ) 0 p.wall_ns in
  let plain_wall = min (wall first) (wall plain)
  and traced_wall = wall traced in
  let overhead_pct = 100.0 *. ratio (float (traced_wall - plain_wall)) (float plain_wall) in
  let unattributed_pct = 100.0 *. ratio (float !unattributed) (float !covered_wall) in
  let obs name = Option.value ~default:0.0 (Hashtbl.find_opt obs_metrics name) in
  let metrics =
    [ ("protocol.parse_us", median (us "protocol.parse"));
      ("protocol.resolve_soc_us", median (us "protocol.resolve_soc"));
      ( "protocol.reply_bytes",
        mean
          (Array.to_list
             (Array.map
                (fun s -> float (String.length s.reply))
                (Array.sub plain.served nsetup count))) );
      ("constraints.derive_us", median (us "constraints.derive"));
      ("canon.key_us", median (us "canon.key"));
      ("lru.find_us", median (us "lru.find"));
      ( "lru.hit_ratio",
        ratio (float traced.lru_stats.hits)
          (float (traced.lru_stats.hits + traced.lru_stats.misses)) );
      ("lru.evictions_per_req", ratio (float traced.lru_stats.evictions) fcount);
      ("service.serve_us", median (us "service.serve"));
      ("store.find_us", median (us "store.find"));
      ("store.decode_us", median (us "store.decode"));
      ("store.add_ms", median (ms "store.add"));
      ("store.hit_ratio", ratio (float store_hits) (float store_lookups));
      ( "store.bytes_per_record",
        match store_stats with
        | Some s -> ratio (float s.Store.bytes) (float s.Store.live)
        | None -> 0.0 );
      ( "store.rescans",
        match store_stats with Some s -> float s.Store.rescans | None -> 0.0 );
      ("memo.build_us", median (us "memo.build"));
      ("ilp.build_ms", ratio (sum (ms "ilp.build")) n_ilp);
      ("ilp.presolve_ms", ratio (sum (ms "ilp.presolve")) n_ilp);
      ("ilp.separate_ms", ratio (sum (ms "ilp.separate")) n_ilp);
      ("ilp.presolve_fixed", per_ilp (fun r -> r.Sweep.presolve_fixed));
      ("ilp.cuts_added", per_ilp (fun r -> r.Sweep.cuts_added));
      ("simplex.pivots", per_ilp (fun r -> r.Sweep.lp_pivots));
      ("simplex.refactorizations", per_ilp (fun r -> r.Sweep.refactorizations));
      ( "simplex.cold_share",
        ratio
          (ilp_total (fun r -> r.Sweep.cold_solves))
          (ilp_total (fun r -> r.Sweep.cold_solves + r.Sweep.warm_starts)) );
      ( "simplex.us_per_pivot",
        ratio (sum (us "bb.node")) (ilp_total (fun r -> r.Sweep.lp_pivots)) );
      ("branch_bound.nodes", per_ilp (fun r -> r.Sweep.nodes));
      ( "branch_bound.us_per_node",
        ratio (sum (us "bb.solve")) (ilp_total (fun r -> r.Sweep.nodes)) );
      ("branch_bound.max_depth", per_ilp (fun r -> r.Sweep.max_depth));
      ("race.solve_ms", median race_ms);
      ("race.best_single_ms", median best_single_ms);
      ("race.useful_ratio", ratio (median best_single_ms) (median race_ms));
      ("race.incumbents", ratio (obs "race.incumbent") (float (List.length race_rows)));
      ( "race.dp_win_share",
        ratio
          (float (List.length (List.filter (fun r -> r.Sweep.winner = Some "dp") race_rows)))
          (float (List.length race_rows)) );
      ("gc.minor_words_per_req", plain.gc_minor /. fcount);
      ("gc.major_words_per_req", plain.gc_major /. fcount);
      ("gc.major_collections_per_kreq", 1000.0 *. float plain.gc_collections /. fcount);
      ("trace.overhead_pct", overhead_pct);
      ("trace.unattributed_pct", unattributed_pct) ]
  in
  (* Ownership: self time by layer over the requests around the median
     and beyond p99 of the traced replay's wall times. *)
  let walls = Array.mapi (fun i _ -> (traced.wall_ns.(i), i + nsetup)) traced.wall_ns in
  Array.sort compare walls;
  let band lo hi =
    let n = Array.length walls in
    let lo = max 0 (int_of_float (lo *. float n)) and hi = min n (max 1 (int_of_float (hi *. float n))) in
    let reqs = Array.to_list (Array.sub walls lo (max 1 (hi - lo))) in
    let tot = Hashtbl.create 8 in
    List.iter
      (fun (_, req) ->
        Hashtbl.iter
          (fun l v -> Hashtbl.replace tot l (v + Option.value ~default:0 (Hashtbl.find_opt tot l)))
          (Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt layer_self req)))
      reqs;
    let all = float (Hashtbl.fold (fun _ v a -> a + v) tot 0) in
    let layers =
      List.sort (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun l v acc -> (l, 100.0 *. ratio (float v) all) :: acc) tot [])
    in
    let wall_ms = float (fst walls.(min (Array.length walls - 1) lo)) /. 1e6 in
    (wall_ms, layers)
  in
  let p50_ms, p50_layers = band 0.45 0.55 and p99_ms, p99_layers = band 0.99 1.0 in
  let fingerprint =
    let pairs lo hi =
      List.init (hi - lo) (fun k ->
          let i = lo + k in
          let e = if i < nsetup then w.setup.(i) else w.stream.(i - nsetup) in
          (e.Workload.inst, traced.served.(i).reply))
    in
    Drive.prefixed "setup" (Drive.row_work (pairs 0 nsetup))
    @ Drive.prefixed "timed"
        (Drive.row_work (pairs nsetup (nsetup + min count (Drive.fingerprint_prefix w.name))))
  in
  (* The Chrome trace: the first timed requests, one track. *)
  let t_origin = List.fold_left (fun m s -> min m s.start) max_int all_spans in
  let events =
    List.filter_map
      (fun s ->
        if s.req < nsetup || s.req >= nsetup + trace_requests then None
        else
          Some
            { Obs.name = s.name;
              track = 0;
              start_ns = Int64.of_int (s.start - t_origin);
              dur_ns = Int64.of_int s.dur;
              args =
                [ ("request_id", string_of_int (s.req - nsetup));
                  ("layer", layer_of ~solver:(solver_of s.req) s.name) ] })
      all_spans
  in
  Trace.write trace_path
    (List.sort (fun (a : Obs.event) b -> compare (a.start_ns, Int64.neg a.dur_ns) (b.start_ns, Int64.neg b.dur_ns)) events);
  { metrics;
    ownership = [ ("p50", p50_ms, p50_layers); ("p99", p99_ms, p99_layers) ];
    fingerprint;
    unattributed_pct;
    overhead_pct }

let json_of_report r =
  Json.Obj
    [ ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.metrics));
      ( "ownership",
        Json.Arr
          (List.map
             (fun (p, ms, layers) ->
               Json.Obj
                 [ ("percentile", Json.Str p);
                   ("wall_ms", Json.Num ms);
                   ( "layers",
                     Json.Obj (List.map (fun (l, pct) -> (l, Json.Num pct)) layers) ) ])
             r.ownership) );
      ( "fingerprint",
        Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.fingerprint) );
      ("unattributed_pct", Json.Num r.unattributed_pct);
      ("overhead_pct", Json.Num r.overhead_pct) ]
