(* The untraced run against a real daemon: set-up, the timed closed
   loop, the reply oracle, the work fingerprint and the counter
   reconciliation. *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock
module Client = Soctam_service.Client
module Protocol = Soctam_service.Protocol

(* Nearest-rank quantile; 0 for no samples. *)
let quantile q a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* A p99 needs ten samples beyond it. *)
let min_requests = 1_000

(* Timed replies that enter the work fingerprint: indices below this
   are always sent, whatever the run length. *)
let fingerprint_prefix = function "ilp_cold" -> 100 | _ -> 1_000

type failure = { index : int; reason : string }

(* One timed phase over stream indices [offset, offset + n). *)
type phase = {
  offset : int;
  n : int;
  lat_ms : float array;  (** per request, in stream order *)
  done_s : float array;  (** completion time after the phase start *)
  src : Bytes.t;  (** per request: 'l', 's', 'f' or 'x' *)
  bad : Bytes.t;  (** per request: '1' when a cached reply mismatched *)
  fresh : (int * string) list;  (** replies with no earlier reply to match *)
  first : (int * string) list;  (** replies below the fingerprint prefix *)
  elapsed_s : float;
  steal_pct : float;  (** host CPU steal during the phase *)
}

type result = {
  setup_s : float list;
  attempted : int;  (** timed requests sent, over every phase *)
  failures : failure list;  (** timed requests only *)
  timed : phase;  (** the phase the metrics come from *)
  steals : float list;  (** steal of every phase run *)
  peak_rss_mb : float;
  stats : Json.t;  (** the daemon's [stats] after the timed phase *)
  fingerprint : (string * int) list;
  problems : string list;
      (** failed set-up replies, reconciliations and fingerprints *)
}

(* ---- work fingerprint ---- *)

(* Exact-repeat work counters summed over reply rows, by solver. *)
let row_work (pairs : (Protocol.instance * string) list) =
  let dp = ref 0 and bb = ref 0 and race = ref 0 in
  let pivots = ref 0 and refac = ref 0 in
  List.iter
    (fun ((inst : Protocol.instance), line) ->
      match Oracle.the_row line with
      | Error _ -> ()
      | Ok row ->
          let get k = Daemon.int_at row [ k ] in
          (match inst.solver with
          | Protocol.Exact -> dp := !dp + get "nodes"
          | Protocol.Ilp -> bb := !bb + get "nodes"
          | _ -> race := !race + get "nodes");
          pivots := !pivots + get "lp_pivots";
          refac := !refac + get "refactorizations")
    pairs;
  [ ("dp_nodes", !dp); ("bb_nodes", !bb); ("race_nodes", !race);
    ("lp_pivots", !pivots); ("refactorizations", !refac) ]

let daemon_work stats =
  [ ("lru_hits", Daemon.int_at stats [ "cache"; "hits" ]);
    ("store_hits", Daemon.int_at stats [ "store"; "hits" ]);
    ("store_appends", Daemon.int_at stats [ "store"; "appends" ]);
    ("evictions", Daemon.int_at stats [ "cache"; "evictions" ]) ]

let prefixed p = List.map (fun (k, v) -> (p ^ "." ^ k, v))

(* ---- set-up ---- *)

let setup (w : Workload.t) config ~dir =
  let t0 = Clock.now_s () in
  let d = Daemon.spawn config ~dir in
  let replies =
    Array.map (fun (e : Workload.entry) -> Client.rpc_line d.control e.line)
      w.setup
  in
  let seconds = Clock.now_s () -. t0 in
  let stats = Daemon.stats d in
  let fp =
    prefixed "setup"
      (row_work
         (Array.to_list
            (Array.mapi (fun i r -> (w.setup.(i).Workload.inst, r)) replies)))
    @ prefixed "setup" (daemon_work stats)
  in
  (d, seconds, replies, fp)

(* Oracle over the set-up replies; returns the expected ["result"] part
   per request line and the failures. *)
let check_setup (w : Workload.t) replies ref_of =
  let expected = Hashtbl.create 512 and bad = ref [] in
  Array.iteri
    (fun i (e : Workload.entry) ->
      let reply = replies.(i) in
      let fail msg = bad := Printf.sprintf "setup %d: %s" i msg :: !bad in
      (match Oracle.check_fresh ~reference:(ref_of e) e.inst reply with
      | Ok () -> ()
      | Error msg -> fail msg);
      (match (e.twin, Oracle.result_part reply) with
      | Some (k, src), Some part -> (
          match
            ( Oracle.result_part replies.(k),
              Oracle.reprint part )
          with
          | Some orig, Ok mine -> (
              match Oracle.permuted_result ~src orig with
              | Ok owed when owed = mine -> ()
              | Ok _ -> fail "shuffled twin's reply differs from its original's"
              | Error msg -> fail msg)
          | _ -> fail "unparsable twin reply")
      | _ -> ());
      match Oracle.result_part reply with
      | Some part when not (Hashtbl.mem expected e.line) ->
          Hashtbl.replace expected e.line part
      | Some _ -> ()
      | None -> fail "reply has no result")
    w.setup;
  (expected, List.rev !bad)

(* ---- the timed closed loop ---- *)

(* (steal, total) CPU jiffies from /proc/stat. Steal is time this
   VM's CPUs were runnable but the host ran something else. *)
let cpu_steal () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some line -> (
            match
              List.filter_map int_of_string_opt
                (String.split_on_char ' ' line)
            with
            | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ as all ->
                (steal, List.fold_left ( + ) 0 all)
            | _ -> (0, 0))
        | None -> (0, 0))
  with Sys_error _ -> (0, 0)

let timed (w : Workload.t) (d : Daemon.t) ~offset ~connections ~seconds
    ~expected ~keep_first =
  let stream = w.stream in
  let len = Array.length stream in
  let lat_ns = Array.make len 0 in
  let done_ns = Array.make len 0 in
  let src = Bytes.make len '-' in
  let bad = Bytes.make len '0' in
  let next = Atomic.make offset in
  let steal0, total0 = cpu_steal () in
  let start = Clock.now_s () in
  let start_ns = Clock.now_ns () in
  let deadline = start +. seconds in
  let worker () =
    let c = Daemon.connect d in
    let fresh = ref [] and first = ref [] in
    let rec loop () =
      if Clock.now_s () >= deadline && Atomic.get next >= offset + min_requests
      then ()
      else
        let i = Atomic.fetch_and_add next 1 in
        if i < len then begin
          let e = stream.(i) in
          let t0 = Clock.now_ns () in
          let reply = try Client.rpc_line c e.line with End_of_file -> "" in
          let t1 = Clock.now_ns () in
          lat_ns.(i) <- Int64.to_int (Int64.sub t1 t0);
          done_ns.(i) <- Int64.to_int (Int64.sub t1 start_ns);
          Bytes.set src i (Oracle.source reply);
          (match Hashtbl.find_opt expected e.line with
          | Some part ->
              if not (Oracle.same_result reply part) then Bytes.set bad i '1'
          | None -> fresh := (i, reply) :: !fresh);
          if i < keep_first then first := (i, reply) :: !first;
          loop ()
        end
    in
    loop ();
    Client.close c;
    (!fresh, !first, Clock.now_s ())
  in
  let doms = List.init connections (fun _ -> Domain.spawn worker) in
  let outs = List.map Domain.join doms in
  let steal1, total1 = cpu_steal () in
  let n = min len (Atomic.get next) - offset in
  let finish = List.fold_left (fun m (_, _, t) -> Float.max m t) start outs in
  { offset;
    n;
    lat_ms = Array.init n (fun i -> float_of_int lat_ns.(offset + i) /. 1e6);
    done_s = Array.init n (fun i -> float_of_int done_ns.(offset + i) /. 1e9);
    src = Bytes.sub src offset n;
    bad = Bytes.sub bad offset n;
    fresh = List.concat_map (fun (f, _, _) -> f) outs;
    first = List.sort compare (List.concat_map (fun (_, f, _) -> f) outs);
    elapsed_s = finish -. start;
    steal_pct =
      (if total1 > total0 then
         100.0 *. float (steal1 - steal0) /. float (total1 - total0)
       else 0.0) }

(* ---- reconciliation ---- *)

let count c bytes =
  let n = ref 0 in
  Bytes.iter (fun x -> if x = c then incr n) bytes;
  !n

let reconcile (d : Daemon.t) stats ~setup_src ~src =
  let client c = count c setup_src + count c src in
  let at = Daemon.int_at stats in
  let checks =
    [ ( "received = completed + failed + malformed + overloaded + control ops",
        at [ "requests"; "received" ],
        at [ "requests"; "completed" ] + at [ "requests"; "failed" ]
        + at [ "requests"; "malformed" ]
        + at [ "requests"; "overloaded" ]
        + d.protocol_ops );
      ("client lru replies = daemon cache.hits", client 'l', at [ "cache"; "hits" ]);
      ( "client lru replies = daemon latency.hit.count",
        client 'l',
        at [ "latency"; "hit"; "count" ] );
      ("client store replies = daemon store.hits", client 's', at [ "store"; "hits" ]);
      ( "client store replies = daemon latency.store_hit.count",
        client 's',
        at [ "latency"; "store_hit"; "count" ] );
      ( "client solve replies = daemon latency.miss.count",
        client 'f',
        at [ "latency"; "miss"; "count" ] ) ]
  in
  List.filter_map
    (fun (what, a, b) ->
      if a = b then None else Some (Printf.sprintf "%s: %d <> %d" what a b))
    checks

(* ---- one whole run ---- *)

let setups = 3

(* A timed phase during which the host stole more CPU than this is run
   once more, continuing the stream on the same daemon, and the phase
   with less steal gives the metrics: the neighbours' load is not the
   program's. *)
let steal_limit_pct = 5.0

let run (w : Workload.t) config ~dir ~connections ~seconds =
  let store_dir k = Filename.concat dir (Printf.sprintf "store-%d" k) in
  let config k =
    { config with
      Daemon.store_dir = (if w.store then Some (store_dir k) else None) }
  in
  (* Set up [setups] times on fresh daemons and stores; the last one
     serves the timed phase. *)
  let rec go k acc =
    let ((d, _, _, _) as s) =
      setup w (config k) ~dir:(Filename.concat dir (Printf.sprintf "d%d" k))
    in
    if k + 1 < setups then begin
      Daemon.stop d;
      go (k + 1) (s :: acc)
    end
    else (s, List.rev (s :: acc))
  in
  let (d, _, setup_replies, setup_fp), all = go 0 [] in
  let references = Hashtbl.create 4096 in
  let ref_of (e : Workload.entry) =
    match Hashtbl.find_opt references e.line with
    | Some r -> r
    | None ->
        let r = Oracle.reference e.inst in
        Hashtbl.replace references e.line r;
        r
  in
  let expected, setup_failures = check_setup w setup_replies ref_of in
  let keep_first = fingerprint_prefix w.name in
  let phase offset =
    timed w d ~offset ~connections ~seconds ~expected ~keep_first
  in
  let p1 = phase 0 in
  let phases =
    if p1.steal_pct > steal_limit_pct then [ p1; phase p1.n ] else [ p1 ]
  in
  let stats = Daemon.stats d in
  let peak_rss_mb = Daemon.peak_rss_mb d in
  let setup_src = Bytes.of_seq (Array.to_seq (Array.map Oracle.source setup_replies)) in
  let problems =
    reconcile d stats ~setup_src
      ~src:(Bytes.concat Bytes.empty (List.map (fun p -> p.src) phases))
  in
  Daemon.stop d;
  (* The oracle, outside the timed phase. *)
  let failures = ref [] in
  let fail index reason = failures := { index; reason } :: !failures in
  List.iter
    (fun p ->
      Bytes.iteri
        (fun j c ->
          if c = '1' then
            fail (p.offset + j) "cached reply differs from the first reply"
          else if Bytes.get p.src j = 'x' then
            fail (p.offset + j) "not an ok work reply")
        p.bad;
      List.iter
        (fun (i, reply) ->
          let e = w.stream.(i) in
          match Oracle.check_fresh ~reference:(ref_of e) e.inst reply with
          | Ok () -> ()
          | Error msg ->
              if Bytes.get p.src (i - p.offset) <> 'x' then
                fail i (msg ^ " -- request " ^ e.line))
        p.fresh)
    phases;
  let timed_fp =
    prefixed "timed"
      (row_work
         (List.map (fun (i, r) -> (w.stream.(i).Workload.inst, r)) p1.first))
  in
  let fingerprint = setup_fp @ timed_fp in
  let problems =
    setup_failures @ problems
    @ List.filter_map
        (fun (k, (_, _, _, fp)) ->
          if fp = setup_fp then None
          else Some (Printf.sprintf "set-up %d fingerprint differs from set-up %d" k (setups - 1)))
        (List.mapi (fun k s -> (k, s)) all)
    @ (if List.length p1.first = min p1.n keep_first then []
       else [ "fingerprint prefix incomplete" ])
  in
  { setup_s = List.map (fun (_, s, _, _) -> s) all;
    attempted = List.fold_left (fun a p -> a + p.n) 0 phases;
    failures = List.rev !failures;
    timed =
      List.fold_left
        (fun best p -> if p.steal_pct < best.steal_pct then p else best)
        p1 phases;
    steals = List.map (fun p -> p.steal_pct) phases;
    peak_rss_mb;
    stats;
    fingerprint;
    problems }
