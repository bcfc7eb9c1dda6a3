(* Observability layer: JSON round-trips, monotonic clock, span/counter
   semantics, the zero-event guarantee when disabled, deterministic
   aggregation across job counts and the Chrome-trace writer. *)

module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock
module Json = Soctam_obs.Json
module Trace = Soctam_obs.Trace
module Summary = Soctam_obs.Summary
module Problem = Soctam_core.Problem
module Benchmarks = Soctam_soc.Benchmarks
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep

(* ---- Json. ---- *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("null", Json.Null);
        ("true", Json.Bool true);
        ("false", Json.Bool false);
        ("int", Json.int 42);
        ("neg", Json.int (-17));
        ("float", Json.Num 3.5);
        ("string", Json.Str "with \"quotes\", \\ and \n tab\t");
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
        ( "nested",
          Json.Arr [ Json.int 1; Json.Arr [ Json.Str "x" ]; Json.Obj [] ] ) ]
  in
  Alcotest.(check bool)
    "compact round-trip" true
    (parse_ok (Json.to_string doc) = doc);
  Alcotest.(check bool)
    "pretty round-trip" true
    (parse_ok (Json.to_string_pretty doc) = doc)

let test_json_integers_exact () =
  (* Counters must survive as JSON integers: no decimal point on
     integral floats, and parsing restores the exact value. *)
  let s = Json.to_string (Json.int 123456789) in
  Alcotest.(check string) "no decimal point" "123456789" s;
  (match parse_ok s with
  | Json.Num v -> Alcotest.(check int) "value" 123456789 (int_of_float v)
  | _ -> Alcotest.fail "expected Num");
  (* The integer fast path ends just below 1e15; past it, and for
     non-integral or non-finite values, numbers print as before. *)
  List.iter
    (fun (x, expected) ->
      Alcotest.(check string) expected expected (Json.to_string (Json.Num x)))
    [ (-0.0, "-0");
      (0.0, "0");
      (999999999999999., "999999999999999");
      (-999999999999999., "-999999999999999");
      (1e15, "1e+15");
      (-1e15, "-1e+15");
      (0.5, "0.5");
      (Float.nan, "null");
      (Float.infinity, "null");
      (Float.neg_infinity, "null") ]

(* The renderer as it was before its integer and unescaped-string fast
   paths, kept verbatim as the reference those must match byte for
   byte. *)
module Reference_render = struct
  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_num buf x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else if Float.is_finite x then
      Buffer.add_string buf (Printf.sprintf "%.12g" x)
    else Buffer.add_string buf "null" (* JSON has no inf/nan *)

  let render add v =
    let buf = Buffer.create 64 in
    add buf v;
    Buffer.contents buf
end

let prop_json_render_matches_reference =
  let open QCheck in
  (* Integral floats of 1 to 15 digits, either sign: the whole range the
     integer fast path takes. *)
  let integral =
    Gen.(
      map2
        (fun k neg -> if neg then -.Float.of_int k else Float.of_int k)
        (int_range 1 15 >>= fun digits ->
         int_bound (int_of_float (10. ** float_of_int digits) - 1))
        bool)
  in
  let number =
    Gen.frequency
      [ (4, integral);
        ( 1,
          Gen.oneofl
            [ -0.0; 1e15; -1e15; 1e15 +. 2.; 1e300; Float.nan;
              Float.infinity; Float.neg_infinity ] );
        (2, Gen.float) ]
  in
  (* Strings over all 256 byte values, and strings with no control
     bytes, which mostly take the unescaped path. *)
  let bytes =
    Gen.(
      oneof
        [ string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24);
          string_size ~gen:(char_range ' ' '\255') (int_bound 24) ])
  in
  Test.make ~name:"json rendering matches the reference renderer" ~count:2000
    (make
       ~print:(fun (x, s) -> Printf.sprintf "(%h, %S)" x s)
       (Gen.pair number bytes))
    (fun (x, s) ->
      Json.to_string (Json.Num x) = Reference_render.(render add_num x)
      && Json.to_string (Json.Str s) = Reference_render.(render escape s))

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "expected parse failure on %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "nul";
  bad "1 2";
  bad "\"unterminated";
  (* Trailing garbage after a complete document. *)
  bad "{} x";
  bad "123abs";
  bad "truefalse";
  bad "[1] [2]"

let test_json_number_grammar () =
  (* The lexer used to hand any [-0-9.eE+] run to [float_of_string],
     which accepts OCaml-isms ("01", "+5", ".5", "5.", "1_0") that JSON
     forbids — and that a stricter peer on the other end of the NDJSON
     protocol would refuse. Enforce RFC 8259 numbers exactly. *)
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "expected number grammar failure on %S" s
    | Error _ -> ()
  in
  bad "01";
  bad "-01";
  bad "+5";
  bad ".5";
  bad "5.";
  bad "-";
  bad "1_0";
  bad "1e";
  bad "1e+";
  bad "0x10";
  bad "[1.]";
  bad "{\"a\": 007}";
  let ok s v =
    match Json.parse s with
    | Ok (Json.Num x) -> Alcotest.(check (float 1e-12)) s v x
    | Ok _ -> Alcotest.failf "expected Num for %S" s
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  ok "0" 0.0;
  ok "-0" (-0.0);
  ok "10" 10.0;
  ok "-0.5" (-0.5);
  ok "0.25" 0.25;
  ok "1e3" 1000.0;
  ok "1E+3" 1000.0;
  ok "2.5e-1" 0.25

let test_json_escapes () =
  (* \u escape decoding to UTF-8 bytes. *)
  (match parse_ok "\"a\\u00e9b\\n\"" with
  | Json.Str s -> Alcotest.(check string) "utf-8" "a\xc3\xa9b\n" s
  | _ -> Alcotest.fail "expected Str");
  (* A \u escape takes exactly four hex digits; OCaml's integer parser
     would also skip underscores. *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "expected \\u escape failure on %S" s
      | Error _ -> ())
    [ {|"\u1_23"|}; {|"\u00_1"|} ]

let test_json_member () =
  let doc = parse_ok "{\"a\": 1, \"b\": [2]}" in
  Alcotest.(check bool) "a" true (Json.member "a" doc = Some (Json.int 1));
  Alcotest.(check bool) "missing" true (Json.member "zz" doc = None);
  Alcotest.(check bool) "non-obj" true (Json.member "a" (Json.int 3) = None)

(* ---- Clock. ---- *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0);
  let t = Clock.now_s () in
  let spin = ref 0 in
  for i = 1 to 1_000_000 do
    spin := !spin + i
  done;
  ignore (Sys.opaque_identity !spin);
  Alcotest.(check bool) "elapsed positive" true (Clock.elapsed_s ~since:t > 0.0)

(* ---- Obs core. ---- *)

let test_disabled_records_nothing () =
  Obs.enable ();
  Obs.disable ();
  (* Every probe flavor, all while disabled. *)
  Obs.span "dead.span" (fun () -> ());
  let tok = Obs.start () in
  Obs.finish "dead.finish" tok;
  Obs.incr "dead.counter";
  Obs.add "dead.add" 2.0;
  Obs.gauge "dead.gauge" 7.0;
  let events, metrics = Obs.drain () in
  Alcotest.(check int) "no events" 0 (List.length events);
  Alcotest.(check int) "no metrics" 0 (List.length metrics)

let test_token_straddling_disable_dropped () =
  (* A span opened while disabled must not record even if tracing is
     enabled by the time it finishes. *)
  Obs.disable ();
  let tok = Obs.start () in
  Obs.enable ();
  Obs.finish "straddle" tok;
  Obs.disable ();
  let events, _ = Obs.drain () in
  Alcotest.(check int) "dropped" 0 (List.length events)

let test_span_nesting_and_balance () =
  Obs.enable ();
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      Obs.span "inner" (fun () -> ()));
  Obs.disable ();
  let events, _ = Obs.drain () in
  Alcotest.(check int) "three spans" 3 (List.length events);
  let find name = List.filter (fun (e : Obs.event) -> e.Obs.name = name) events in
  let outer = List.hd (find "outer") in
  Alcotest.(check int) "two inner" 2 (List.length (find "inner"));
  (* Nesting: both inner spans lie within the outer interval. *)
  List.iter
    (fun (i : Obs.event) ->
      Alcotest.(check bool) "starts after outer" true
        (Int64.compare i.Obs.start_ns outer.Obs.start_ns >= 0);
      Alcotest.(check bool) "ends before outer" true
        (Int64.compare
           (Int64.add i.Obs.start_ns i.Obs.dur_ns)
           (Int64.add outer.Obs.start_ns outer.Obs.dur_ns)
         <= 0))
    (find "inner")

let test_span_records_on_exception () =
  Obs.enable ();
  (try Obs.span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Obs.disable ();
  let events, _ = Obs.drain () in
  Alcotest.(check int) "span recorded" 1 (List.length events);
  Alcotest.(check string) "name" "raiser" (List.hd events).Obs.name

let test_counter_aggregation () =
  Obs.enable ();
  Obs.incr "c";
  Obs.incr ~n:4 "c";
  Obs.add "a" 1.5;
  Obs.add "a" 2.5;
  Obs.gauge "g" 10.0;
  Obs.gauge "g" 3.0;
  Obs.disable ();
  let _, metrics = Obs.drain () in
  let m name =
    match List.find_opt (fun (m : Obs.metric) -> m.Obs.name = name) metrics with
    | Some m -> m
    | None -> Alcotest.failf "missing metric %s" name
  in
  let c = m "c" in
  Alcotest.(check int) "c count" 2 c.Obs.count;
  Alcotest.(check (float 1e-9)) "c total" 5.0 c.Obs.total;
  Alcotest.(check (float 1e-9)) "c max" 4.0 c.Obs.max;
  let a = m "a" in
  Alcotest.(check (float 1e-9)) "a total" 4.0 a.Obs.total;
  Alcotest.(check (float 1e-9)) "a max" 2.5 a.Obs.max;
  let g = m "g" in
  (* Gauge: total is the last sample, max the high-water mark. *)
  Alcotest.(check (float 1e-9)) "g last" 3.0 g.Obs.total;
  Alcotest.(check (float 1e-9)) "g max" 10.0 g.Obs.max;
  (* Metrics arrive sorted by name. *)
  Alcotest.(check (list string))
    "sorted" [ "a"; "c"; "g" ]
    (List.map (fun (m : Obs.metric) -> m.Obs.name) metrics)

let test_enable_clears () =
  Obs.enable ();
  Obs.incr "old";
  Obs.span "old.span" (fun () -> ());
  Obs.enable ();
  Obs.incr "fresh";
  Obs.disable ();
  let events, metrics = Obs.drain () in
  Alcotest.(check int) "old events gone" 0 (List.length events);
  Alcotest.(check (list string))
    "only fresh" [ "fresh" ]
    (List.map (fun (m : Obs.metric) -> m.Obs.name) metrics)

let test_span_summary () =
  Obs.enable ();
  Obs.span "s" (fun () -> ());
  Obs.span "s" (fun () -> ());
  Obs.span "t" (fun () -> ());
  Obs.disable ();
  let events, _ = Obs.drain () in
  let summary = Obs.span_summary events in
  Alcotest.(check (list (pair string int)))
    "counts"
    [ ("s", 2); ("t", 1) ]
    (List.map (fun (m : Obs.metric) -> (m.Obs.name, m.Obs.count)) summary);
  List.iter
    (fun (m : Obs.metric) ->
      Alcotest.(check bool) "max <= total" true (m.Obs.max <= m.Obs.total +. 1e-12))
    summary

(* ---- Deterministic aggregation across job counts. ---- *)

(* Aggregate signature of a sweep recording: span counts per name and
   integer counter totals. [pool.*] probes only exist when a pool fans
   out (jobs >= 2), so they are excluded from the comparison. *)
let aggregate_signature () =
  let events, metrics = Obs.drain () in
  let not_pool name =
    not (String.length name >= 5 && String.sub name 0 5 = "pool.")
  in
  let spans =
    List.filter
      (fun (m : Obs.metric) -> not_pool m.Obs.name)
      (Obs.span_summary events)
    |> List.map (fun (m : Obs.metric) -> (m.Obs.name, m.Obs.count))
  in
  let counters =
    List.filter_map
      (fun (m : Obs.metric) ->
        if not_pool m.Obs.name then
          Some (m.Obs.name, m.Obs.count, int_of_float m.Obs.total)
        else None)
      metrics
  in
  (spans, counters)

let record_sweep ~jobs =
  let soc = Benchmarks.s1 () in
  let cells =
    Sweep.cells ~solver:(Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true }) soc ~num_buses:2
      ~widths:[ 10; 12 ]
    @ Sweep.cells ~solver:Sweep.Exact soc ~num_buses:2 ~widths:[ 8; 16 ]
  in
  Obs.enable ();
  let rows =
    Pool.with_pool ~num_domains:jobs (fun pool -> Sweep.run ~pool cells)
  in
  Obs.disable ();
  (rows, aggregate_signature ())

let test_deterministic_merge_across_jobs () =
  let rows1, sig1 = record_sweep ~jobs:1 in
  let rows4, sig4 = record_sweep ~jobs:4 in
  Alcotest.(check bool) "rows identical" true (Sweep.equal_rows rows1 rows4);
  let spans1, counters1 = sig1 and spans4, counters4 = sig4 in
  Alcotest.(check (list (pair string int))) "span counts" spans1 spans4;
  Alcotest.(check (list (triple string int int)))
    "counter totals" counters1 counters4;
  (* The sweep actually recorded solver internals. *)
  Alcotest.(check bool) "saw bb.node spans" true
    (List.mem_assoc "bb.node" spans1);
  Alcotest.(check bool) "saw sweep.cell spans" true
    (List.mem_assoc "sweep.cell" spans1)

let test_parallel_tracks () =
  (* Every recording domain gets its own track. Spawn the domains
     directly: a pool on a single-hardware-thread host may legally let
     the caller drain the whole queue before a worker wakes. *)
  let _, _ = record_sweep ~jobs:1 in
  Obs.enable ();
  Obs.span "tracks.main" (fun () -> ());
  let workers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            Obs.span (Printf.sprintf "tracks.worker%d" i) (fun () -> ())))
  in
  List.iter Domain.join workers;
  Obs.disable ();
  let events, _ = Obs.drain () in
  let tracks =
    List.sort_uniq compare (List.map (fun (e : Obs.event) -> e.Obs.track) events)
  in
  Alcotest.(check bool) "several tracks" true (List.length tracks >= 2);
  (* Events arrive sorted by (track, start). *)
  let rec sorted = function
    | (a : Obs.event) :: (b : Obs.event) :: rest ->
        (a.Obs.track < b.Obs.track
        || (a.Obs.track = b.Obs.track
           && Int64.compare a.Obs.start_ns b.Obs.start_ns <= 0))
        && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "drain order" true (sorted events)

(* ---- Chrome trace writer. ---- *)

let test_trace_writer_valid_json () =
  Obs.enable ();
  Obs.span "w.outer" ~args:[ ("k", "v \"quoted\"") ] (fun () ->
      Obs.span "w.inner" (fun () -> ()));
  Obs.incr "w.counter";
  Obs.disable ();
  let events, metrics = Obs.drain () in
  let doc = Trace.to_json ~metrics events in
  (* Round-trip through the printer and parser. *)
  let parsed = parse_ok (Json.to_string_pretty doc) in
  let trace_events =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let complete =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.Str "X"))
      trace_events
  in
  Alcotest.(check int) "two complete events" 2 (List.length complete);
  List.iter
    (fun e ->
      Alcotest.(check bool) "has ts" true (Json.member "ts" e <> None);
      Alcotest.(check bool) "has dur" true (Json.member "dur" e <> None);
      Alcotest.(check bool) "has tid" true (Json.member "tid" e <> None))
    complete;
  (* One thread_name metadata row per track. *)
  let meta =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.Str "M"))
      trace_events
  in
  Alcotest.(check int) "one metadata row" 1 (List.length meta);
  (match Json.member "soctamMetrics" parsed with
  | Some (Json.Arr [ m ]) ->
      Alcotest.(check bool) "metric name" true
        (Json.member "name" m = Some (Json.Str "w.counter"))
  | _ -> Alcotest.fail "soctamMetrics missing");
  (* File writer output parses too. *)
  let path = Filename.temp_file "soctam_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write path ~metrics events;
      let contents = In_channel.with_open_text path In_channel.input_all in
      ignore (parse_ok contents))

let test_summary_tables_render () =
  Obs.enable ();
  Obs.span "r.span" (fun () -> ());
  Obs.incr "r.counter";
  Obs.disable ();
  let events, metrics = Obs.drain () in
  let spans = Summary.spans_table (Obs.span_summary events) in
  let counters = Summary.counters_table metrics in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "span row" true (contains spans "r.span");
  Alcotest.(check bool) "counter row" true (contains counters "r.counter");
  Alcotest.(check string) "empty spans" "" (Summary.spans_table []);
  Alcotest.(check string) "empty counters" "" (Summary.counters_table [])

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json integers exact" `Quick test_json_integers_exact;
    QCheck_alcotest.to_alcotest prop_json_render_matches_reference;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json number grammar" `Quick test_json_number_grammar;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json member" `Quick test_json_member;
    Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "straddling token dropped" `Quick
      test_token_straddling_disable_dropped;
    Alcotest.test_case "span nesting and balance" `Quick
      test_span_nesting_and_balance;
    Alcotest.test_case "span records on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "enable clears" `Quick test_enable_clears;
    Alcotest.test_case "span summary" `Quick test_span_summary;
    Alcotest.test_case "deterministic merge across jobs" `Quick
      test_deterministic_merge_across_jobs;
    Alcotest.test_case "parallel tracks" `Quick test_parallel_tracks;
    Alcotest.test_case "trace writer valid json" `Quick
      test_trace_writer_valid_json;
    Alcotest.test_case "summary tables render" `Quick
      test_summary_tables_render ]
