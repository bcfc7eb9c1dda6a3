(* The service layer: canonical hashing, the LRU cache, the NDJSON
   protocol, and the daemon engine driven in-process through
   [Service.handle_line]. *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Test_time = Soctam_soc.Test_time
module Benchmarks = Soctam_soc.Benchmarks
module Problem = Soctam_core.Problem
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Canon = Soctam_service.Canon
module Lru = Soctam_service.Lru
module Metrics = Soctam_service.Metrics
module Protocol = Soctam_service.Protocol
module Service = Soctam_service.Service

(* ---- canonical hashing ---- *)

(* A random permutation of [0..n-1], deterministic in [seed]. *)
let permutation ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Relabel an instance: core [i] moves to position [move.(i)], and the
   constraint pairs move with the cores. *)
let permute_instance ~move soc pairs =
  let n = Soc.num_cores soc in
  let cores = Array.make n (Soc.core soc 0) in
  for i = 0 to n - 1 do
    cores.(move.(i)) <- Soc.core soc i
  done;
  let soc' = Soc.make ~name:(Soc.name soc) (Array.to_list cores) in
  let pairs' = List.map (fun (a, b) -> (move.(a), move.(b))) pairs in
  (soc', pairs')

let canon_of ~soc ~constraints ?(solver = "exact") ?(num_buses = 2)
    ?(total_width = 8) ?(model = Test_time.Serialization) ?(extra = "") () =
  Canon.of_instance ~extra ~soc ~time_model:model ~constraints ~solver
    ~num_buses ~total_width ()

let prop_canon_permutation_invariant =
  QCheck.Test.make ~name:"canonical key is core-permutation invariant"
    ~count:200 Gen.spec_arbitrary (fun spec ->
      let soc =
        Benchmarks.random ~seed:spec.Gen.seed ~num_cores:spec.Gen.num_cores
          ()
      in
      let move = permutation ~seed:spec.Gen.seed (Soc.num_cores soc) in
      let soc', excl' = permute_instance ~move soc spec.Gen.raw_excl in
      let _, co' = permute_instance ~move soc spec.Gen.raw_co in
      let ca =
        canon_of ~soc
          ~constraints:
            { Problem.exclusion_pairs = spec.Gen.raw_excl;
              co_pairs = spec.Gen.raw_co }
          ~num_buses:spec.Gen.num_buses ~total_width:spec.Gen.total_width ()
      in
      let cb =
        canon_of ~soc:soc'
          ~constraints:{ Problem.exclusion_pairs = excl'; co_pairs = co' }
          ~num_buses:spec.Gen.num_buses ~total_width:spec.Gen.total_width ()
      in
      if ca.Canon.key <> cb.Canon.key then
        QCheck.Test.fail_report "permuted instance changed the key";
      if ca.Canon.digest <> cb.Canon.digest then
        QCheck.Test.fail_report "permuted instance changed the digest";
      (* The cache-serving invariant: store per-core data under one
         labelling, serve it under the other, and each physical core
         keeps its value. *)
      let n = Soc.num_cores soc in
      let answer = Array.init n (fun i -> 100 + i) in
      let served = Canon.apply_perm cb (Canon.store_perm ca answer) in
      Array.iteri
        (fun i v ->
          if served.(move.(i)) <> v then
            QCheck.Test.fail_report "served array lost a core's value")
        answer;
      true)

let prop_canon_sensitive =
  QCheck.Test.make ~name:"canonical key separates distinct instances"
    ~count:100 Gen.spec_arbitrary (fun spec ->
      let soc =
        Benchmarks.random ~seed:spec.Gen.seed ~num_cores:spec.Gen.num_cores
          ()
      in
      let constraints =
        { Problem.exclusion_pairs = spec.Gen.raw_excl;
          co_pairs = spec.Gen.raw_co }
      in
      let base =
        canon_of ~soc ~constraints ~num_buses:spec.Gen.num_buses
          ~total_width:spec.Gen.total_width ()
      in
      let differs what c =
        if c.Canon.key = base.Canon.key then
          QCheck.Test.fail_reportf "%s did not change the key" what
      in
      differs "num_buses + 1"
        (canon_of ~soc ~constraints ~num_buses:(spec.Gen.num_buses + 1)
           ~total_width:spec.Gen.total_width ());
      differs "total_width + 1"
        (canon_of ~soc ~constraints ~num_buses:spec.Gen.num_buses
           ~total_width:(spec.Gen.total_width + 1) ());
      differs "solver"
        (canon_of ~soc ~constraints ~solver:"ilp"
           ~num_buses:spec.Gen.num_buses ~total_width:spec.Gen.total_width
           ());
      differs "time model"
        (canon_of ~soc ~constraints ~model:Test_time.Scan_distribution
           ~num_buses:spec.Gen.num_buses ~total_width:spec.Gen.total_width
           ());
      differs "extra facet"
        (canon_of ~soc ~constraints ~extra:"widths=1,2"
           ~num_buses:spec.Gen.num_buses ~total_width:spec.Gen.total_width
           ());
      (if Soc.num_cores soc >= 2 then
         let pair = (0, 1) in
         (* The canon normalizes pair order, so (1,0) already covers
            (0,1). *)
         if
           (not (List.mem pair constraints.Problem.exclusion_pairs))
           && not (List.mem (1, 0) constraints.Problem.exclusion_pairs)
         then
           differs "added exclusion pair"
             (canon_of ~soc
                ~constraints:
                  {
                    constraints with
                    Problem.exclusion_pairs =
                      pair :: constraints.Problem.exclusion_pairs;
                  }
                ~num_buses:spec.Gen.num_buses
                ~total_width:spec.Gen.total_width ()));
      (* A per-core attribute participates in the key: double one
         core's pattern count. *)
      let bump = Soc.core soc 0 in
      let bumped =
        Core_def.make ~name:bump.Core_def.name ~inputs:bump.Core_def.inputs
          ~outputs:bump.Core_def.outputs ~scan:bump.Core_def.scan
          ~patterns:(bump.Core_def.patterns * 2)
          ~power_mw:bump.Core_def.power_mw ~dim_mm:bump.Core_def.dim_mm
      in
      let soc' =
        Soc.make ~name:(Soc.name soc)
          (bumped
          :: List.tl (Array.to_list (Soc.cores soc)))
      in
      differs "pattern count"
        (canon_of ~soc:soc' ~constraints ~num_buses:spec.Gen.num_buses
           ~total_width:spec.Gen.total_width ());
      true)

(* ---- LRU ---- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find c "a");
  (* "b" is now the least recently used; adding "c" evicts it. *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 3 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "length" 2 s.Lru.length

let test_lru_replace () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "a" 10;
  Alcotest.(check int) "length" 1 (Lru.length c);
  Alcotest.(check (option int)) "replaced" (Some 10) (Lru.find c "a")

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 () in
  Lru.put c "a" 1;
  Alcotest.(check (option int)) "stores nothing" None (Lru.find c "a");
  Alcotest.(check int) "length" 0 (Lru.length c);
  Alcotest.(check int) "misses" 1 (Lru.stats c).Lru.misses

(* ---- metrics ---- *)

let test_percentiles () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let p50, p95, p99 = Metrics.percentiles samples in
  Alcotest.(check (float 0.0)) "p50" 50.0 p50;
  Alcotest.(check (float 0.0)) "p95" 95.0 p95;
  Alcotest.(check (float 0.0)) "p99" 99.0 p99;
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Metrics.percentile [||] 0.5))

(* Nearest-rank never interpolates: whenever n < 1/(1-q), the rank
   ceil(q*n) clamps to n and the tail quantile IS the maximum. This is
   the documented convention, pinned here so nobody "fixes" it into a
   silent behavior change — and so callers know p99 of 10 samples says
   nothing a max would not. *)
let test_percentile_small_sample_convention () =
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p99 of 10 samples is the max" 10.0
    (Metrics.percentile ten 0.99);
  Alcotest.(check (float 0.0)) "p95 of 10 samples is the max" 10.0
    (Metrics.percentile ten 0.95);
  Alcotest.(check (float 0.0)) "p90 of 10 samples is rank 9" 9.0
    (Metrics.percentile ten 0.90);
  Alcotest.(check (float 0.0)) "p50 of 10 samples is rank 5" 5.0
    (Metrics.percentile ten 0.50);
  let one = [| 42.0 |] in
  Alcotest.(check (float 0.0)) "every quantile of n=1 is the sample"
    42.0
    (Metrics.percentile one 0.999);
  Alcotest.(check (float 0.0)) "q=0 is the min" 1.0
    (Metrics.percentile ten 0.0);
  (* The histogram follows the same convention, so daemon-side and
     load-generator percentiles agree on small counts too. *)
  let snap = Soctam_obs.Hist.of_samples ten in
  Alcotest.(check (float 0.5)) "hist p99 of 10 also collapses to max"
    10.0
    (Soctam_obs.Hist.quantile snap 0.99)

(* ---- protocol ---- *)

let parse_line line =
  match Json.parse line with
  | Ok json -> Protocol.parse_request json
  | Error msg -> Error msg

let test_protocol_parse () =
  (match
     parse_line
       {|{"id":1,"op":"solve","soc":"s1","solver":"ilp","num_buses":2,
          "total_width":16,"model":"scan","d_max":9.5,"deadline_ms":250}|}
   with
  | Ok (Protocol.Solve { instance; deadline_ms; _ }) ->
      Alcotest.(check bool) "named soc" true
        (instance.Protocol.soc_spec = Protocol.Named "s1");
      Alcotest.(check bool) "ilp" true
        (instance.Protocol.solver = Protocol.Ilp);
      Alcotest.(check int) "width" 16 instance.Protocol.total_width;
      Alcotest.(check bool) "scan model" true
        (instance.Protocol.time_model = Test_time.Scan_distribution);
      Alcotest.(check (option (float 0.0))) "d_max" (Some 9.5)
        instance.Protocol.d_max_mm;
      Alcotest.(check (option (float 0.0))) "deadline" (Some 250.0)
        deadline_ms
  | Ok _ -> Alcotest.fail "expected Solve"
  | Error msg -> Alcotest.failf "parse: %s" msg);
  match
    parse_line
      {|{"op":"sweep","soc":{"name":"x","cores":[
          {"name":"a","inputs":3,"outputs":2,"patterns":10},
          {"name":"b","inputs":4,"outputs":4,"patterns":20,"ff":8}]},
         "num_buses":2,"widths":[4,8]}|}
  with
  | Ok (Protocol.Sweep { instance; widths; _ }) -> (
      Alcotest.(check (list int)) "widths" [ 4; 8 ] widths;
      Alcotest.(check int) "width = max widths" 8
        instance.Protocol.total_width;
      match instance.Protocol.soc_spec with
      | Protocol.Inline soc ->
          Alcotest.(check int) "cores" 2 (Soc.num_cores soc);
          Alcotest.(check int) "scan core ff" 8
            (Core_def.flip_flops (Soc.core soc 1))
      | Protocol.Named _ -> Alcotest.fail "expected inline soc")
  | Ok _ -> Alcotest.fail "expected Sweep"
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_protocol_rejects () =
  let bad line =
    match parse_line line with
    | Ok _ -> Alcotest.failf "expected rejection of %s" line
    | Error _ -> ()
  in
  bad {|{"soc":"s1"}|};
  bad {|{"op":"nope"}|};
  bad {|{"op":"solve","soc":"s1","num_buses":2}|};
  bad {|{"op":"solve","soc":"s1","num_buses":0,"total_width":8}|};
  bad {|{"op":"solve","soc":"s1","num_buses":4,"total_width":2}|};
  bad {|{"op":"solve","soc":"s1","num_buses":2,"total_width":8,
         "deadline_ms":-1}|};
  bad {|{"op":"solve","soc":"s1","num_buses":2.5,"total_width":8}|};
  bad {|{"op":"solve","soc":{"name":"x","cores":[]},"num_buses":1,
         "total_width":4}|};
  bad
    {|{"op":"solve","soc":{"name":"x","cores":[
        {"name":"a","inputs":3,"outputs":2,"patterns":10},
        {"name":"a","inputs":3,"outputs":2,"patterns":10}]},
       "num_buses":1,"total_width":4}|};
  bad {|{"op":"sweep","soc":"s1","num_buses":2,"widths":[]}|};
  bad {|{"op":"sleep","ms":-5}|};
  bad {|[1,2]|}

let test_protocol_roundtrip () =
  let instance =
    {
      Protocol.soc_spec = Protocol.Named "rnd:5:4";
      solver = Protocol.Heuristic;
      num_buses = 2;
      total_width = 12;
      time_model = Test_time.Serialization;
      d_max_mm = None;
      p_max_mw = Some 800.0;
    }
  in
  let req = Protocol.Solve { instance; deadline_ms = Some 100.0; stream = false } in
  let line = Json.to_string (Protocol.json_of_request ~id:(Json.int 7) req) in
  match parse_line line with
  | Ok (Protocol.Solve { instance = i; deadline_ms; _ }) ->
      Alcotest.(check bool) "instance survives" true
        (i = instance);
      Alcotest.(check (option (float 0.0))) "deadline survives"
        (Some 100.0) deadline_ms
  | Ok _ | Error _ -> Alcotest.failf "roundtrip failed on %s" line

(* The CLI's --solver and --model flags read through the same name
   parsers as the wire's fields. *)
let test_name_parsers () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Protocol.solver_name s ^ " round-trips") true
        (Protocol.solver_of_string (Protocol.solver_name s) = Ok s))
    Protocol.[ Exact; Ilp; Heuristic; Race; Pack ];
  Alcotest.(check bool) "serialization parses" true
    (Protocol.model_of_string "serialization" = Ok Test_time.Serialization);
  Alcotest.(check bool) "scan parses" true
    (Protocol.model_of_string "scan" = Ok Test_time.Scan_distribution);
  Alcotest.(check bool) "unknown solver rejected" true
    (Result.is_error (Protocol.solver_of_string "bogus"))

let test_resolve_soc () =
  (match Protocol.resolve_soc (Protocol.Named "s2") with
  | Ok soc -> Alcotest.(check int) "s2 cores" 10 (Soc.num_cores soc)
  | Error msg -> Alcotest.fail msg);
  (match Protocol.resolve_soc (Protocol.Named "rnd:3:5") with
  | Ok soc -> Alcotest.(check int) "rnd cores" 5 (Soc.num_cores soc)
  | Error msg -> Alcotest.fail msg);
  match Protocol.resolve_soc (Protocol.Named "bogus") with
  | Ok _ -> Alcotest.fail "bogus spec resolved"
  | Error _ -> ()

(* ---- the daemon engine, driven in-process ---- *)

let reply_of_line svc line =
  match Json.parse (Service.handle_line svc line) with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "reply is not JSON: %s" msg

let reply_ok reply =
  match Json.member "ok" reply with
  | Some (Json.Bool b) -> b
  | _ -> false

let error_code reply =
  match Json.member "error" reply with
  | Some err -> (
      match Json.member "code" err with
      | Some (Json.Str code) -> code
      | _ -> "")
  | None -> ""

let reply_cached reply =
  match Json.member "cached" reply with
  | Some (Json.Bool b) -> b
  | _ -> false

let first_row reply =
  match Json.member "result" reply with
  | Some result -> (
      match Json.member "rows" result with
      | Some (Json.Arr (row :: _)) -> row
      | _ -> Alcotest.fail "reply has no rows")
  | None -> Alcotest.fail "reply has no result"

let row_ints field row =
  match Json.member field row with
  | Some (Json.Arr xs) ->
      List.map (function Json.Num x -> int_of_float x | _ -> -1) xs
  | _ -> Alcotest.failf "row has no %s" field

let row_test_time row =
  match Json.member "test_time" row with
  | Some (Json.Num t) -> int_of_float t
  | _ -> Alcotest.failf "row has no test_time"

let with_service ?(cache_capacity = 16) ?(queue_capacity = 4) f =
  Pool.with_pool ~num_domains:2 (fun pool ->
      f (Service.create ~cache_capacity ~queue_capacity ~pool ()))

let solve_line = {|{"id":1,"op":"solve","soc":"s1","num_buses":2,"total_width":16}|}

let test_service_solve_and_cache () =
  with_service @@ fun svc ->
  let first = reply_of_line svc solve_line in
  Alcotest.(check bool) "first ok" true (reply_ok first);
  Alcotest.(check bool) "first not cached" false (reply_cached first);
  let second = reply_of_line svc solve_line in
  Alcotest.(check bool) "second ok" true (reply_ok second);
  Alcotest.(check bool) "second cached" true (reply_cached second);
  (* The daemon's answer must match the one-shot CLI path bit for bit
     (same row, same architecture). *)
  let expected =
    let soc = Benchmarks.s1 () in
    match
      Sweep.cells soc ~num_buses:2 ~widths:[ 16 ]
    with
    | [ cell ] -> Sweep.solve_one cell
    | _ -> assert false
  in
  let expected_time, expected_assignment, expected_widths =
    match expected.Sweep.solution with
    | Some (arch, t) ->
        ( t,
          Array.to_list arch.Soctam_core.Architecture.assignment,
          Array.to_list arch.Soctam_core.Architecture.widths )
    | None -> Alcotest.fail "one-shot solve infeasible"
  in
  List.iter
    (fun reply ->
      let row = first_row reply in
      Alcotest.(check int) "test time" expected_time (row_test_time row);
      Alcotest.(check (list int)) "widths" expected_widths
        (row_ints "widths" row);
      Alcotest.(check (list int)) "assignment" expected_assignment
        (row_ints "assignment" row))
    [ first; second ];
  (* Cached and fresh replies carry the same result payload. *)
  Alcotest.(check bool) "identical results" true
    (Json.member "result" first = Json.member "result" second);
  let stats = Service.stats_json svc in
  (match Json.member "cache" stats with
  | Some cache ->
      Alcotest.(check bool) "one hit" true
        (Json.member "hits" cache = Some (Json.int 1))
  | None -> Alcotest.fail "stats has no cache")

(* A permuted inline SOC must hit the cache entry of its relabelling,
   and get the answer back in its own core order. *)
let test_service_permuted_hit () =
  let core name patterns =
    Printf.sprintf
      {|{"name":"%s","inputs":4,"outputs":3,"patterns":%d,"ff":%d}|} name
      patterns (10 * patterns)
  in
  let soc_json cores =
    Printf.sprintf {|{"name":"perm","cores":[%s]}|}
      (String.concat "," cores)
  in
  let line cores =
    Printf.sprintf
      {|{"op":"solve","soc":%s,"num_buses":2,"total_width":8}|}
      (soc_json cores)
  in
  let a = core "a" 10 and b = core "b" 25 and c = core "c" 40 in
  with_service @@ fun svc ->
  let first = reply_of_line svc (line [ a; b; c ]) in
  Alcotest.(check bool) "first ok" true (reply_ok first);
  let second = reply_of_line svc (line [ c; a; b ]) in
  Alcotest.(check bool) "permuted ok" true (reply_ok second);
  Alcotest.(check bool) "permuted request hits" true (reply_cached second);
  (* Request order was [a;b;c] then [c;a;b]: the served assignment must
     follow the cores. *)
  let asg1 = row_ints "assignment" (first_row first) in
  let asg2 = row_ints "assignment" (first_row second) in
  (match (asg1, asg2) with
  | [ ba; bb; bc ], [ bc'; ba'; bb' ] ->
      Alcotest.(check (list int)) "assignment follows the cores"
        [ bc; ba; bb ] [ bc'; ba'; bb' ]
  | _ -> Alcotest.fail "unexpected assignment arity");
  Alcotest.(check (list int)) "same widths"
    (row_ints "widths" (first_row first))
    (row_ints "widths" (first_row second));
  Alcotest.(check int) "same time"
    (row_test_time (first_row first))
    (row_test_time (first_row second))

let test_service_bad_requests () =
  with_service @@ fun svc ->
  let check_code name line code =
    let reply = reply_of_line svc line in
    Alcotest.(check bool) (name ^ " not ok") false (reply_ok reply);
    Alcotest.(check string) name code (error_code reply)
  in
  check_code "garbage" "{nope" "bad_request";
  check_code "bad op" {|{"op":"fly"}|} "bad_request";
  check_code "unknown soc"
    {|{"op":"solve","soc":"sX","num_buses":2,"total_width":8}|}
    "bad_request";
  check_code "expired deadline"
    {|{"op":"solve","soc":"s1","num_buses":2,"total_width":12,
       "deadline_ms":0}|}
    "deadline_exceeded"

(* An expired deadline still serves a cache hit: the answer is already
   paid for. *)
let test_service_deadline_hit () =
  with_service @@ fun svc ->
  let warm = reply_of_line svc solve_line in
  Alcotest.(check bool) "warm ok" true (reply_ok warm);
  let reply =
    reply_of_line svc
      {|{"op":"solve","soc":"s1","num_buses":2,"total_width":16,
         "deadline_ms":0}|}
  in
  Alcotest.(check bool) "hit despite deadline" true (reply_ok reply);
  Alcotest.(check bool) "served from cache" true (reply_cached reply)

let test_service_overload () =
  with_service ~queue_capacity:1 @@ fun svc ->
  let sleeper =
    Thread.create
      (fun () -> ignore (Service.handle_line svc {|{"op":"sleep","ms":300}|}))
      ()
  in
  (* Let the sleeper take the only admission slot. *)
  Thread.delay 0.05;
  let shed = reply_of_line svc solve_line in
  Alcotest.(check bool) "shed not ok" false (reply_ok shed);
  Alcotest.(check string) "overloaded" "overloaded" (error_code shed);
  Thread.join sleeper;
  (* Capacity is back: the same request is served. *)
  let after = reply_of_line svc solve_line in
  Alcotest.(check bool) "served after drain" true (reply_ok after);
  let stats = Service.stats_json svc in
  match Json.member "requests" stats with
  | Some reqs ->
      Alcotest.(check bool) "one shed request" true
        (Json.member "overloaded" reqs = Some (Json.int 1))
  | None -> Alcotest.fail "stats has no requests"

(* A hit takes no admission slot: with the only slot held by a sleep,
   a cached request is still answered, and nothing is shed. *)
let test_service_hit_while_queue_full () =
  with_service ~queue_capacity:1 @@ fun svc ->
  let warm = reply_of_line svc solve_line in
  Alcotest.(check bool) "warm ok" true (reply_ok warm);
  let sleeper =
    Thread.create
      (fun () -> ignore (Service.handle_line svc {|{"op":"sleep","ms":300}|}))
      ()
  in
  Thread.delay 0.05;
  let hit = reply_of_line svc solve_line in
  Thread.join sleeper;
  Alcotest.(check bool) "hit ok" true (reply_ok hit);
  Alcotest.(check bool) "hit cached" true (reply_cached hit);
  let stats = Service.stats_json svc in
  match Json.member "requests" stats with
  | Some reqs ->
      Alcotest.(check bool) "warm, sleep and hit completed" true
        (Json.member "completed" reqs = Some (Json.int 3));
      Alcotest.(check bool) "nothing shed" true
        (Json.member "overloaded" reqs = Some (Json.int 0))
  | None -> Alcotest.fail "stats has no requests"

let test_service_shutdown () =
  with_service @@ fun svc ->
  Alcotest.(check bool) "not yet" false (Service.shutdown_requested svc);
  let reply = reply_of_line svc {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown ok" true (reply_ok reply);
  Alcotest.(check bool) "flagged" true (Service.shutdown_requested svc);
  let refused = reply_of_line svc solve_line in
  Alcotest.(check string) "work refused" "shutting_down"
    (error_code refused);
  let ping = reply_of_line svc {|{"op":"ping"}|} in
  Alcotest.(check bool) "ping still answered" true (reply_ok ping);
  Service.drain svc

(* A streamed race solve pushes incumbent events through [emit] before
   handle_line returns its final certified reply; a cached replay of
   the same request streams nothing. *)
let test_service_race_stream () =
  with_service @@ fun svc ->
  let line =
    {|{"id":9,"op":"solve","soc":"s2","solver":"race","num_buses":3,
       "total_width":24,"stream":true}|}
  in
  let emitted = ref [] in
  let reply_line =
    Service.handle_line ~emit:(fun l -> emitted := l :: !emitted) svc line
  in
  let reply =
    match Json.parse reply_line with
    | Ok r -> r
    | Error msg -> Alcotest.failf "reply is not JSON: %s" msg
  in
  Alcotest.(check bool) "final reply ok" true (reply_ok reply);
  let events = List.rev_map (fun l -> Json.parse l) !emitted in
  Alcotest.(check bool) "at least one incumbent pushed" true (events <> []);
  let times =
    List.map
      (fun ev ->
        match ev with
        | Ok ev ->
            Alcotest.(check bool) "event is not a reply" false
              (Protocol.is_final_reply ev);
            Alcotest.(check bool) "tagged incumbent" true
              (Json.member "event" ev = Some (Json.Str "incumbent"));
            Alcotest.(check bool) "id echoed" true
              (Json.member "id" ev = Some (Json.int 9));
            (match Json.member "test_time" ev with
            | Some (Json.Num t) -> int_of_float t
            | _ -> Alcotest.fail "event has no test_time")
        | Error msg -> Alcotest.failf "event is not JSON: %s" msg)
      events
  in
  Alcotest.(check bool) "events monotone decreasing" true
    (List.for_all2 ( > ) (List.filteri (fun i _ -> i < List.length times - 1) times)
       (List.tl times));
  (* The certified verdict lands after the last streamed incumbent and
     agrees with it. *)
  let row = first_row reply in
  Alcotest.(check int) "final row = last incumbent"
    (List.nth times (List.length times - 1))
    (row_test_time row);
  (match Json.member "optimal" row with
  | Some (Json.Bool b) -> Alcotest.(check bool) "certified" true b
  | _ -> Alcotest.fail "row has no optimal");
  (* Replay: cache hit, no events. *)
  let stream2 = ref [] in
  let second =
    Service.handle_line ~emit:(fun l -> stream2 := l :: !stream2) svc line
  in
  (match Json.parse second with
  | Ok r -> Alcotest.(check bool) "cached replay" true (reply_cached r)
  | Error msg -> Alcotest.failf "second reply is not JSON: %s" msg);
  Alcotest.(check bool) "cached hit streams nothing" true (!stream2 = [])

(* Trace-id propagation and the health probe, driven in-process: legal
   ids echo byte-identically on ok AND error replies, the server mints
   one when the client sends none, oversized or non-string ids are a
   bad_request, and health answers without touching admission. *)
let test_service_trace_and_health () =
  with_service @@ fun svc ->
  let health = reply_of_line svc {|{"op":"health"}|} in
  Alcotest.(check bool) "health ok" true (reply_ok health);
  (match Json.member "result" health with
  | Some r ->
      Alcotest.(check bool) "health status" true
        (Json.member "status" r = Some (Json.Str "ok"));
      Alcotest.(check bool) "health has inflight" true
        (Json.member "inflight" r <> None)
  | None -> Alcotest.fail "health reply has no result");
  let ping = reply_of_line svc {|{"id":1,"op":"ping","trace_id":"abc-123"}|} in
  Alcotest.(check bool) "ping ok" true (reply_ok ping);
  Alcotest.(check bool) "trace echoed on ok" true
    (Json.member "trace_id" ping = Some (Json.Str "abc-123"));
  let err = reply_of_line svc {|{"op":"nonsense","trace_id":"xyz"}|} in
  Alcotest.(check bool) "unknown op fails" false (reply_ok err);
  Alcotest.(check bool) "trace echoed on error" true
    (Json.member "trace_id" err = Some (Json.Str "xyz"));
  (match Json.member "trace_id" (reply_of_line svc {|{"op":"ping"}|}) with
  | Some (Json.Str s) ->
      Alcotest.(check bool) "server mints a trace id" true
        (String.length s > 0 && String.length s <= Protocol.max_trace_id_len)
  | _ -> Alcotest.fail "no server-minted trace_id");
  let oversized =
    Printf.sprintf {|{"op":"ping","trace_id":"%s"}|}
      (String.make (Protocol.max_trace_id_len + 1) 'x')
  in
  Alcotest.(check string) "oversized trace refused" "bad_request"
    (error_code (reply_of_line svc oversized));
  Alcotest.(check string) "non-string trace refused" "bad_request"
    (error_code (reply_of_line svc {|{"op":"ping","trace_id":42}|}))

(* Deadline plumbing below the service: a sweep started after its
   deadline returns best-found rows instead of stalling. *)
let test_sweep_deadline_expired () =
  let soc = Benchmarks.s1 () in
  let cells =
    Sweep.cells ~solver:(Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true }) soc ~num_buses:2
      ~widths:[ 16 ]
  in
  let rows = Sweep.run ~deadline_s:(Clock.now_s () -. 1.0) cells in
  match rows with
  | [ row ] ->
      Alcotest.(check bool) "not optimal" false row.Sweep.optimal
  | _ -> Alcotest.fail "expected one row"

let suite =
  [ QCheck_alcotest.to_alcotest prop_canon_permutation_invariant;
    QCheck_alcotest.to_alcotest prop_canon_sensitive;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "lru capacity 0" `Quick test_lru_disabled;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile small-sample convention" `Quick
      test_percentile_small_sample_convention;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "solver and model names parse" `Quick
      test_name_parsers;
    Alcotest.test_case "resolve soc specs" `Quick test_resolve_soc;
    Alcotest.test_case "solve and cache" `Quick test_service_solve_and_cache;
    Alcotest.test_case "permuted request hits" `Quick
      test_service_permuted_hit;
    Alcotest.test_case "bad requests" `Quick test_service_bad_requests;
    Alcotest.test_case "deadline still hits cache" `Quick
      test_service_deadline_hit;
    Alcotest.test_case "overload shedding" `Quick test_service_overload;
    Alcotest.test_case "hit served while queue is full" `Quick
      test_service_hit_while_queue_full;
    Alcotest.test_case "shutdown" `Quick test_service_shutdown;
    Alcotest.test_case "race solve streams incumbents" `Quick
      test_service_race_stream;
    Alcotest.test_case "trace ids and health probe" `Quick
      test_service_trace_and_health;
    Alcotest.test_case "sweep deadline expiry" `Quick
      test_sweep_deadline_expired ]
