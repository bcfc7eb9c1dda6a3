(* The observability stack end to end: histogram bucket geometry and
   quantile error bounds, multi-domain shard merging, the structured
   log's one-event-per-line invariant, rotation, trace filtering, the
   Prometheus exposition golden format, trace-id echo through a live
   socket daemon, and the fuzz storm's log contract. *)

module Hist = Soctam_obs.Hist
module Log = Soctam_obs.Log
module Export = Soctam_obs.Export
module Json = Soctam_obs.Json
module Metrics = Soctam_service.Metrics
module Pool = Soctam_engine.Pool
module Service = Soctam_service.Service
module Server = Soctam_service.Server
module Client = Soctam_service.Client
module Addr = Soctam_service.Addr
module Proto_fuzz = Soctam_check.Proto_fuzz

(* ---- bucket geometry ---- *)

(* Pinned bucket facts the exporter golden test below depends on:
   1.0 opens the octave [1, 2) so its bucket is [1, 1 + 1/64);
   3.0 = 1.5 * 2 sits at sub-bucket 32 of octave [2, 4). *)
let test_bucket_geometry () =
  let check_bounds v lo hi =
    let l, h = Hist.bounds (Hist.index_of v) in
    Alcotest.(check (float 0.0)) (Printf.sprintf "%g lo" v) lo l;
    Alcotest.(check (float 0.0)) (Printf.sprintf "%g hi" v) hi h
  in
  check_bounds 1.0 1.0 1.015625;
  check_bounds 3.0 3.0 3.03125;
  (* Non-positive and NaN clamp to bucket 0, out-of-range clamps to the
     end buckets — no sample is ever dropped. *)
  Alcotest.(check int) "zero clamps low" 0 (Hist.index_of 0.0);
  Alcotest.(check int) "negative clamps low" 0 (Hist.index_of (-3.0));
  Alcotest.(check int) "nan clamps low" 0 (Hist.index_of nan);
  Alcotest.(check int) "huge clamps high" (Hist.num_buckets - 1)
    (Hist.index_of 1e300);
  (* Buckets tile the range: every bucket's hi is the next one's lo,
     and index_of maps a bucket's lo back to that bucket. *)
  for i = 0 to Hist.num_buckets - 2 do
    let _, hi = Hist.bounds i in
    let lo', _ = Hist.bounds (i + 1) in
    if hi <> lo' then
      Alcotest.failf "bucket %d hi %.17g <> bucket %d lo %.17g" i hi (i + 1)
        lo'
  done;
  for i = 0 to Hist.num_buckets - 1 do
    let lo, _ = Hist.bounds i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d round-trips" i) i
      (Hist.index_of lo)
  done

(* ---- quantile error bound (property) ---- *)

(* The design bound: the bucket midpoint is within half a bucket width
   of the exact nearest-rank sample, a relative error of at most
   1/128 < 0.8%. Both sides use the same rank, so this is pure
   bucketing error. *)
let rel_err approx exact =
  if exact = 0.0 then Float.abs approx else Float.abs (approx -. exact) /. Float.abs exact

let prop_hist_quantile_error =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 400)
        (map (fun u -> 10.0 ** u) (float_range (-3.0) 3.0)))
  in
  let arb =
    QCheck.make gen
      ~print:(fun l ->
        String.concat "," (List.map (Printf.sprintf "%g") l))
  in
  QCheck.Test.make ~count:200 ~name:"hist quantiles within 1% of exact sort"
    arb (fun samples ->
      let a = Array.of_list samples in
      let snap = Hist.of_samples a in
      List.for_all
        (fun q ->
          let exact = Metrics.percentile a q in
          let approx = Hist.quantile snap q in
          rel_err approx exact <= 0.01)
        [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* Acceptance bound from the issue: p50/p99/p999 within 2% of the exact
   sort on a million samples spanning six decades. *)
let test_hist_million_samples () =
  let n = 1_000_000 in
  let st = Random.State.make [| 42 |] in
  let a =
    Array.init n (fun _ -> 10.0 ** (Random.State.float st 6.0 -. 3.0))
  in
  let snap = Hist.of_samples a in
  Alcotest.(check int) "count exact" n snap.Hist.count;
  List.iter
    (fun (name, q) ->
      let exact = Metrics.percentile a q in
      let approx = Hist.quantile snap q in
      let err = rel_err approx exact in
      if err > 0.02 then
        Alcotest.failf "%s: hist %.6g vs exact %.6g (%.2f%% error)" name
          approx exact (100.0 *. err))
    [ ("p50", 0.5); ("p99", 0.99); ("p999", 0.999) ];
  (* Sum/min/max are tracked exactly, not through buckets. *)
  let exact_sum = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check bool) "sum exact" true
    (rel_err snap.Hist.sum exact_sum <= 1e-9);
  Alcotest.(check (float 0.0)) "min exact"
    (Array.fold_left Float.min infinity a)
    snap.Hist.min;
  Alcotest.(check (float 0.0)) "max exact"
    (Array.fold_left Float.max neg_infinity a)
    snap.Hist.max

(* Quantiles clamp into [min, max]: a one-sample histogram answers that
   sample exactly at every q, bucket midpoint notwithstanding. *)
let test_hist_single_sample_exact () =
  let snap = Hist.of_samples [| 5.0 |] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g of one sample" q)
        5.0 (Hist.quantile snap q))
    [ 0.0; 0.5; 0.99; 0.999; 1.0 ];
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile Hist.empty 0.5))

(* ---- multi-domain merge ---- *)

(* Four domains record disjoint sample ranges into one histogram; the
   merged snapshot must equal the offline single-array build bucket for
   bucket — shard merging loses nothing and is deterministic. *)
let test_hist_multidomain_merge () =
  let h = Hist.create () in
  let per_domain = 10_000 in
  let samples_for d =
    Array.init per_domain (fun i ->
        0.1 +. (float_of_int ((d * per_domain) + i) /. 997.0))
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            Array.iter (Hist.record h) (samples_for d)))
  in
  List.iter Domain.join domains;
  let snap = Hist.snapshot h in
  let all = Array.concat (List.init 4 samples_for) in
  let expected = Hist.of_samples all in
  Alcotest.(check int) "count" expected.Hist.count snap.Hist.count;
  Alcotest.(check bool) "per-bucket counts identical" true
    (snap.Hist.counts = expected.Hist.counts);
  Alcotest.(check bool) "sum matches" true
    (rel_err snap.Hist.sum expected.Hist.sum <= 1e-12);
  Alcotest.(check (float 0.0)) "min" expected.Hist.min snap.Hist.min;
  Alcotest.(check (float 0.0)) "max" expected.Hist.max snap.Hist.max;
  (* merge is commutative and agrees with the one-shot build. *)
  let a = Hist.of_samples (samples_for 0)
  and b = Hist.of_samples (samples_for 1) in
  let ab = Hist.merge a b and ba = Hist.merge b a in
  Alcotest.(check bool) "merge commutes" true
    (ab.Hist.counts = ba.Hist.counts && ab.Hist.count = ba.Hist.count);
  let direct = Hist.of_samples (Array.concat [ samples_for 0; samples_for 1 ]) in
  Alcotest.(check bool) "merge = concat" true
    (ab.Hist.counts = direct.Hist.counts);
  Hist.clear h;
  Alcotest.(check int) "clear empties" 0 (Hist.snapshot h).Hist.count

(* ---- structured log ---- *)

let capture () =
  let lines = ref [] in
  let log = Log.create (Log.Fn (fun l -> lines := l :: !lines)) in
  (log, fun () -> List.rev !lines)

(* Hostile field values — newlines, quotes, control bytes — must still
   produce exactly one line that parses back to the original strings. *)
let test_log_schema_roundtrip () =
  let log, got = capture () in
  let hostile = "evil\ntrace\"id}\x01{" in
  Log.event log
    [ ("trace_id", Json.Str hostile);
      ("op", Json.Str "solve");
      ("duration_ms", Json.Num 1.5) ];
  Log.close log;
  match got () with
  | [ line ] -> (
      Alcotest.(check bool) "no raw newline" false (String.contains line '\n');
      match Json.parse line with
      | Error msg -> Alcotest.failf "log line is not JSON: %s" msg
      | Ok ev ->
          Alcotest.(check bool) "trace survives" true
            (Json.member "trace_id" ev = Some (Json.Str hostile));
          Alcotest.(check bool) "op survives" true
            (Json.member "op" ev = Some (Json.Str "solve"));
          Alcotest.(check bool) "duration survives" true
            (Json.member "duration_ms" ev = Some (Json.Num 1.5));
          (match Json.member "ts" ev with
          | Some (Json.Num ts) ->
              Alcotest.(check bool) "ts is wall clock" true (ts > 1.0e9)
          | _ -> Alcotest.fail "no ts field"))
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines)

let test_log_only_trace () =
  let lines = ref [] in
  let log =
    Log.create ~only_trace:"keep-me"
      (Log.Fn (fun l -> lines := l :: !lines))
  in
  Log.event log [ ("trace_id", Json.Str "keep-me"); ("op", Json.Str "a") ];
  Log.event log [ ("trace_id", Json.Str "other"); ("op", Json.Str "b") ];
  Log.event log [ ("op", Json.Str "no-trace") ];
  Log.close log;
  match !lines with
  | [ line ] ->
      Alcotest.(check bool) "kept the matching event" true
        (match Json.parse line with
        | Ok ev -> Json.member "op" ev = Some (Json.Str "a")
        | Error _ -> false)
  | l -> Alcotest.failf "filter kept %d events, wanted 1" (List.length l)

let test_log_rotation () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "soctam-log-test-%d.ndjson" (Unix.getpid ()))
  in
  let rotated = path ^ ".1" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; rotated ];
  let log = Log.create (Log.File { path; max_bytes = 256 }) in
  for i = 1 to 40 do
    Log.event log [ ("op", Json.Str "fill"); ("seq", Json.Num (float_of_int i)) ]
  done;
  Log.close log;
  Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "rotation exists" true (Sys.file_exists rotated);
  let check_lines p =
    In_channel.with_open_text p (fun ic ->
        In_channel.input_lines ic
        |> List.iter (fun line ->
               match Json.parse line with
               | Ok (Json.Obj _) -> ()
               | Ok _ | Error _ ->
                   Alcotest.failf "%s holds a bad line: %s" p line))
  in
  check_lines path;
  check_lines rotated;
  List.iter Sys.remove [ path; rotated ]

(* ---- Prometheus exposition ---- *)

(* Golden output: exact bytes, pinned so a format drift (which would
   break real scrapers) fails loudly. Buckets are cumulative, labelled
   with the bucket's upper bound, and +Inf equals _count. *)
let test_export_golden () =
  let snap = Hist.of_samples [| 1.0; 3.0 |] in
  let body =
    Export.render
      [ Export.Counter
          { name = "req_total";
            help = "requests";
            series =
              [ ([ ("result", "ok") ], 3.0);
                ([ ("result", "a\"b\nc\\d") ], 1.0) ] };
        Export.Gauge
          { name = "inflight"; help = "now"; series = [ ([], 2.0) ] };
        Export.Histogram
          { name = "test_ms"; help = "latency"; series = [ ([], snap) ] } ]
  in
  let expected =
    String.concat "\n"
      [ "# HELP req_total requests";
        "# TYPE req_total counter";
        "req_total{result=\"ok\"} 3";
        "req_total{result=\"a\\\"b\\nc\\\\d\"} 1";
        "# HELP inflight now";
        "# TYPE inflight gauge";
        "inflight 2";
        "# HELP test_ms latency";
        "# TYPE test_ms histogram";
        "test_ms_bucket{le=\"1.015625\"} 1";
        "test_ms_bucket{le=\"3.03125\"} 2";
        "test_ms_bucket{le=\"+Inf\"} 2";
        "test_ms_sum 4";
        "test_ms_count 2";
        "" ]
  in
  Alcotest.(check string) "exposition body" expected body

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

(* The service's own exposition: after one miss and one hit the family
   set, TYPE lines and cumulative-bucket invariant all hold. *)
let test_service_metrics_text () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let svc = Service.create ~cache_capacity:16 ~queue_capacity:4 ~pool () in
      let line =
        {|{"id":1,"op":"solve","soc":"s1","num_buses":2,"total_width":16}|}
      in
      ignore (Service.handle_line svc line);
      ignore (Service.handle_line svc line);
      let body = Service.metrics_text svc in
      List.iter
        (fun needle ->
          if not (contains body needle) then
            Alcotest.failf "missing %S in exposition" needle)
        [ "# TYPE tamoptd_requests_total counter";
          "# TYPE tamoptd_request_latency_ms histogram";
          "tamoptd_requests_total{result=\"completed\"} 2";
          "tamoptd_cache_events_total{event=\"hit\"} 1";
          "tamoptd_cache_events_total{event=\"miss\"} 1";
          "tamoptd_request_latency_ms_count{cache=\"hit\"} 1";
          "tamoptd_request_latency_ms_count{cache=\"miss\"} 1";
          (* Only the miss was admitted and queued; the hit was
             answered on the calling thread. *)
          "tamoptd_queue_wait_ms_count 1";
          "le=\"+Inf\"" ];
      Service.drain svc)

(* ---- live daemon: trace echo over the socket ---- *)

let test_live_daemon_trace_echo () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "soctam-tel-%d.sock" (Unix.getpid ()))
  in
  let addr =
    match Addr.of_string ("unix:" ^ sock) with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let log_lines = ref [] in
  let log_mutex = Mutex.create () in
  let log =
    Log.create
      (Log.Fn
         (fun l ->
           Mutex.lock log_mutex;
           log_lines := l :: !log_lines;
           Mutex.unlock log_mutex))
  in
  Pool.with_pool ~num_domains:2 (fun pool ->
      let svc =
        Service.create ~cache_capacity:16 ~queue_capacity:4 ~log ~pool ()
      in
      let ready = Atomic.make false in
      let server =
        Thread.create
          (fun () ->
            Server.serve ~on_bound:(fun () -> Atomic.set ready true)
              ~service:svc addr)
          ()
      in
      while not (Atomic.get ready) do
        Thread.delay 0.005
      done;
      let client = Client.connect addr in
      let reply line =
        match Json.parse (Client.rpc_line client line) with
        | Ok r -> r
        | Error msg -> Alcotest.failf "daemon reply is not JSON: %s" msg
      in
      (* Trace echo through the real socket path. *)
      let r = reply {|{"id":1,"op":"ping","trace_id":"e2e-001"}|} in
      Alcotest.(check bool) "trace echoed over the wire" true
        (Json.member "trace_id" r = Some (Json.Str "e2e-001"));
      (* A solve carries its trace into the worker and back. *)
      let r =
        reply
          {|{"id":2,"op":"solve","soc":"s1","num_buses":2,"total_width":16,"trace_id":"e2e-002"}|}
      in
      Alcotest.(check bool) "solve ok" true
        (Json.member "ok" r = Some (Json.Bool true));
      Alcotest.(check bool) "solve trace echoed" true
        (Json.member "trace_id" r = Some (Json.Str "e2e-002"));
      (* Health over the wire. *)
      let r = reply {|{"op":"health"}|} in
      (match Json.member "result" r with
      | Some res ->
          Alcotest.(check bool) "health status ok" true
            (Json.member "status" res = Some (Json.Str "ok"))
      | None -> Alcotest.fail "health has no result");
      ignore (reply {|{"op":"shutdown"}|});
      Client.close client;
      Thread.join server);
  Log.close log;
  (* Every request left exactly one conforming log event, and the ping's
     event carries its trace. *)
  let lines = List.rev !log_lines in
  (match Proto_fuzz.check_log_lines lines with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "daemon log contract: %s" msg);
  let has_ping_trace =
    List.exists
      (fun l ->
        match Json.parse l with
        | Ok ev ->
            Json.member "trace_id" ev = Some (Json.Str "e2e-001")
            && Json.member "op" ev = Some (Json.Str "ping")
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "ping trace in the log" true has_ping_trace

(* ---- fuzz storm against the log contract ---- *)

let test_fuzz_log_contract () =
  let log_lines = ref [] in
  let log_mutex = Mutex.create () in
  let log =
    Log.create
      (Log.Fn
         (fun l ->
           Mutex.lock log_mutex;
           log_lines := l :: !log_lines;
           Mutex.unlock log_mutex))
  in
  Pool.with_pool ~num_domains:2 (fun pool ->
      let svc =
        Service.create ~cache_capacity:16 ~queue_capacity:8 ~log ~pool ()
      in
      (match
         Proto_fuzz.run ~handle:(Service.handle_line svc) ~seed:11
           ~budget:300 ()
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "protocol contract violated: %s" msg);
      Service.drain svc);
  Log.close log;
  let lines = List.rev !log_lines in
  Alcotest.(check bool) "storm produced log events" true (lines <> []);
  match Proto_fuzz.check_log_lines lines with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "log contract under fuzz: %s" msg

let suite =
  [ Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
    QCheck_alcotest.to_alcotest prop_hist_quantile_error;
    Alcotest.test_case "million-sample quantile accuracy" `Slow
      test_hist_million_samples;
    Alcotest.test_case "single sample is exact" `Quick
      test_hist_single_sample_exact;
    Alcotest.test_case "multi-domain merge" `Quick
      test_hist_multidomain_merge;
    Alcotest.test_case "log schema round-trip" `Quick
      test_log_schema_roundtrip;
    Alcotest.test_case "log trace filter" `Quick test_log_only_trace;
    Alcotest.test_case "log rotation" `Quick test_log_rotation;
    Alcotest.test_case "exposition golden format" `Quick test_export_golden;
    Alcotest.test_case "service exposition families" `Quick
      test_service_metrics_text;
    Alcotest.test_case "live daemon trace echo" `Quick
      test_live_daemon_trace_echo;
    Alcotest.test_case "fuzz storm log contract" `Quick
      test_fuzz_log_contract ]
