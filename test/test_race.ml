module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks
module Race = Soctam_engine.Race
module Pack = Soctam_pack.Pack
module Rect_sched = Soctam_sched.Rect_sched
module Clock = Soctam_obs.Clock
module Cgen = Soctam_check.Gen

(* The E8-style constrained workload: conflicts force real search, so
   the complete engines have work to do and the heuristics publish
   improvable incumbents. *)
let constrained_problem () =
  let soc = Benchmarks.s2 () in
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4) ] }
  in
  Problem.make ~constraints soc ~num_buses:3 ~total_width:16

(* A small rectangle-packing instance the exact packer certifies. *)
let pack_problem () =
  Problem.make
    (Benchmarks.random ~seed:5 ~num_cores:4 ())
    ~num_buses:2 ~total_width:6

let test_race_certifies_exact () =
  let problem = constrained_problem () in
  let exact = (Exact.solve problem).Exact.solution in
  let r = Race.solve problem in
  Alcotest.(check bool) "optimal" true r.Race.optimal;
  Alcotest.(check bool) "certificate issued" true
    (r.Race.certificate <> None);
  Alcotest.(check bool) "winner named" true (r.Race.winner <> None);
  (match (exact, r.Race.solution) with
  | Some (_, t), Some (_, t') -> Alcotest.(check int) "race = exact" t t'
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility mismatch against exact");
  (* The packing family certifies too, and its re-derivation hands back
     the exact packer's own optimum, whichever engine found it first
     (on this instance the live incumbent is a different packing). *)
  let p = Race.solve_pack (pack_problem ()) in
  Alcotest.(check bool) "pack optimal" true p.Race.optimal;
  Alcotest.(check bool) "pack = exact packer's packing" true
    (p.Race.packing = (Pack.exact (pack_problem ())).Pack.packing)

let streamed race =
  let events = ref [] in
  let r = race (fun ev -> events := ev :: !events) in
  (r, List.rev !events)

(* Streamed incumbents are strictly improving, and the final solution
   is exactly the last streamed value — the certificate never reports
   something the stream did not announce. Both families publish
   through the same protocol, so both must stream this way. *)
let test_race_stream_monotone () =
  let check name events ~incumbents ~final =
    Alcotest.(check bool) (name ^ " at least one incumbent streamed") true
      (events <> []);
    Alcotest.(check int) (name ^ " incumbents counted") (List.length events)
      incumbents;
    let rec strictly_decreasing = function
      | a :: (b :: _ as rest) ->
          a.Race.test_time > b.Race.test_time && strictly_decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) (name ^ " strictly improving") true
      (strictly_decreasing events);
    match (final, List.rev events) with
    | Some t, last :: _ ->
        Alcotest.(check int) (name ^ " final = last streamed")
          last.Race.test_time t
    | _ -> Alcotest.failf "%s: expected a feasible certified solution" name
  in
  let r, events =
    streamed (fun on_event -> Race.solve ~on_event (constrained_problem ()))
  in
  check "partition" events ~incumbents:r.Race.incumbents
    ~final:(Option.map snd r.Race.solution);
  let p, events =
    streamed (fun on_event -> Race.solve_pack ~on_event (pack_problem ()))
  in
  check "pack" events ~incumbents:p.Race.incumbents
    ~final:
      (Option.map (fun (q : Rect_sched.t) -> q.Rect_sched.makespan)
         p.Race.packing)

(* Both families: nothing runs past an expired deadline. *)
let test_race_expired_deadline () =
  let deadline_s = Clock.now_s () -. 1.0 in
  let r = Race.solve ~deadline_s (constrained_problem ()) in
  Alcotest.(check bool) "not optimal" false r.Race.optimal;
  Alcotest.(check (option string)) "no certificate" None r.Race.certificate;
  Alcotest.(check bool) "no solution (nothing ran)" true
    (r.Race.solution = None);
  let p = Race.solve_pack ~deadline_s (pack_problem ()) in
  Alcotest.(check bool) "pack not optimal" false p.Race.optimal;
  Alcotest.(check (option string)) "pack no certificate" None
    p.Race.certificate;
  Alcotest.(check bool) "no packing (nothing ran)" true
    (p.Race.packing = None)

(* ---- the certify-first probe ---- *)

let architecture_of (r : Race.result) =
  match r.Race.solution with
  | Some (arch, t) -> (arch, t)
  | None -> Alcotest.fail "expected a feasible certified solution"

let check_architecture name (a : Architecture.t) ~widths ~assignment =
  Alcotest.(check (array int)) (name ^ " widths") widths a.Architecture.widths;
  Alcotest.(check (array int))
    (name ^ " assignment") assignment a.Architecture.assignment

(* Instances the probe closes end before the heuristics start: every
   streamed incumbent is DP's. The certified architecture is Exact's,
   and the one the heuristics-first order certified (recorded here). *)
let test_probe_closes_easy_instances () =
  List.iter
    (fun (name, problem, t_golden, widths, assignment) ->
      let events = ref [] in
      let r =
        Race.solve ~on_event:(fun ev -> events := ev :: !events) problem
      in
      Alcotest.(check bool) (name ^ " optimal") true r.Race.optimal;
      Alcotest.(check (option string)) (name ^ " winner") (Some "dp")
        r.Race.winner;
      Alcotest.(check (list string))
        (name ^ " only dp incumbents")
        (List.map (fun _ -> "dp") !events)
        (List.map (fun ev -> ev.Race.engine) !events);
      let arch, t = architecture_of r in
      Alcotest.(check int) (name ^ " heuristics-first optimum") t_golden t;
      check_architecture (name ^ " heuristics-first") arch ~widths ~assignment;
      match (Exact.solve problem).Exact.solution with
      | Some (exact, t_exact) ->
          Alcotest.(check int) (name ^ " exact optimum") t_exact t;
          check_architecture (name ^ " exact") arch
            ~widths:exact.Architecture.widths
            ~assignment:exact.Architecture.assignment
      | None -> Alcotest.fail "exact found no solution")
    [ ( "constrained s2 W16",
        constrained_problem (),
        597588,
        [| 8; 6; 2 |],
        [| 1; 0; 2; 0; 0; 1; 0; 0; 2; 0 |] );
      ( "s2 W24",
        Problem.make (Benchmarks.s2 ()) ~num_buses:3 ~total_width:24,
        391087,
        [| 9; 8; 7 |],
        [| 1; 2; 2; 0; 2; 2; 0; 1; 0; 1 |] ) ]

(* 32 cores on 5 buses: far past the probe's budget. *)
let hard_problem () =
  Problem.make
    (Benchmarks.random ~seed:7 ~num_cores:32 ())
    ~num_buses:5 ~total_width:56

let heuristic ev = ev.Race.engine = "greedy" || ev.Race.engine = "anneal"

(* Instances the probe cannot close fall through to the heuristics,
   and DP resumes where the probe stopped to certify Exact's optimum. On
   the two smaller ones a heuristic holds the optimum when DP certifies
   (annealing on rnd:1:12, greedy on rnd:7:16), so only the canonical
   re-derivation turns it into Exact's architecture. *)
let test_probe_falls_through () =
  List.iter
    (fun (name, problem) ->
      let events = ref [] in
      let r =
        Race.solve ~on_event:(fun ev -> events := ev :: !events) problem
      in
      Alcotest.(check bool) (name ^ " optimal") true r.Race.optimal;
      Alcotest.(check bool) (name ^ " past the probe's budget") true
        (r.Race.nodes > Race.probe_node_budget);
      Alcotest.(check bool) (name ^ " heuristics published") true
        (List.exists heuristic !events);
      let arch, t = architecture_of r in
      match (Exact.solve problem).Exact.solution with
      | Some (exact, t_exact) ->
          Alcotest.(check int) (name ^ " exact optimum") t_exact t;
          check_architecture name arch ~widths:exact.Architecture.widths
            ~assignment:exact.Architecture.assignment
      | None -> Alcotest.fail "exact found no solution")
    [ ("rnd:7:32", hard_problem ());
      ( "rnd:1:12",
        Problem.make
          (Benchmarks.random ~seed:1 ~num_cores:12 ())
          ~num_buses:2 ~total_width:16 );
      ( "rnd:7:16",
        Problem.make
          (Benchmarks.random ~seed:7 ~num_cores:16 ())
          ~num_buses:4 ~total_width:8 ) ]

(* The probe is node-budgeted, so a deadline race stays anytime: it
   still hands back a heuristic incumbent, uncertified. On 36 cores the
   first greedy incumbent lands within tens of milliseconds and the
   full race takes most of a second. *)
let test_probe_keeps_deadline_races_anytime () =
  let problem =
    Problem.make
      (Benchmarks.random ~seed:7 ~num_cores:36 ())
      ~num_buses:5 ~total_width:64
  in
  let r, events =
    streamed (fun on_event ->
        Race.solve ~deadline_s:(Clock.now_s () +. 0.1) ~on_event problem)
  in
  Alcotest.(check bool) "not optimal" false r.Race.optimal;
  Alcotest.(check bool) "incumbent returned" true (r.Race.solution <> None);
  Alcotest.(check bool) "heuristic incumbent streamed" true
    (List.exists heuristic events);
  (* Uncertified, the winner is the engine holding the final incumbent. *)
  match List.rev events with
  | last :: _ ->
      Alcotest.(check (option string)) "winner attributed"
        (Some last.Race.engine) r.Race.winner
  | [] -> Alcotest.fail "expected a streamed incumbent"

(* The certified answer is a pure function of the instance, whichever
   engine certified it: the canonical re-derivation returns Exact's
   architecture, widths and assignment included, not just its time. *)
let prop_race_matches_exact =
  QCheck.Test.make ~name:"race certifies the exact optimum" ~count:25
    Gen.spec_arbitrary (fun spec ->
      let problem = Cgen.problem_of_spec spec in
      let exact = (Exact.solve problem).Exact.solution in
      let r = Race.solve problem in
      r.Race.optimal && r.Race.solution = exact)

let suite =
  [ Alcotest.test_case "certifies the exact optimum" `Quick
      test_race_certifies_exact;
    Alcotest.test_case "streamed incumbents strictly improve" `Quick
      test_race_stream_monotone;
    Alcotest.test_case "expired deadline yields a partial verdict" `Quick
      test_race_expired_deadline;
    Alcotest.test_case "probe closes easy instances with dp alone" `Quick
      test_probe_closes_easy_instances;
    Alcotest.test_case "probe falls through to the full race" `Quick
      test_probe_falls_through;
    Alcotest.test_case "deadline race with a probe stays anytime" `Quick
      test_probe_keeps_deadline_races_anytime;
    QCheck_alcotest.to_alcotest prop_race_matches_exact ]
