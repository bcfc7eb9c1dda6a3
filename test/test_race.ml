module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks
module Pool = Soctam_engine.Pool
module Race = Soctam_engine.Race
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

let race_with_jobs problem jobs =
  if jobs = 1 then Race.solve problem
  else
    Pool.with_pool ~num_domains:jobs (fun pool -> Race.solve ~pool problem)

let test_race_certifies_exact () =
  let problem = constrained_problem () in
  let exact = (Exact.solve problem).Exact.solution in
  let r = Race.solve problem in
  Alcotest.(check bool) "optimal" true r.Race.optimal;
  Alcotest.(check bool) "certificate issued" true
    (r.Race.certificate <> None);
  Alcotest.(check bool) "winner named" true (r.Race.winner <> None);
  match (exact, r.Race.solution) with
  | Some (_, t), Some (_, t') -> Alcotest.(check int) "race = exact" t t'
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility mismatch against exact"

(* The certified answer is a pure function of the instance: identical
   architecture (not just test time) whichever engine wins the
   wall-clock race under any job count. *)
let test_race_deterministic_across_jobs () =
  let problem = constrained_problem () in
  let r1 = race_with_jobs problem 1 in
  Alcotest.(check bool) "jobs=1 optimal" true r1.Race.optimal;
  List.iter
    (fun jobs ->
      let r = race_with_jobs problem jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d optimal" jobs)
        true r.Race.optimal;
      match (r1.Race.solution, r.Race.solution) with
      | Some (a1, t1), Some (a, t) ->
          Alcotest.(check int) (Printf.sprintf "jobs=%d time" jobs) t1 t;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d widths" jobs)
            a1.Architecture.widths a.Architecture.widths;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d assignment" jobs)
            a1.Architecture.assignment a.Architecture.assignment
      | None, None -> ()
      | _ ->
          Alcotest.failf "jobs=%d feasibility differs from jobs=1" jobs)
    [ 2; 4 ]

(* Streamed incumbents are strictly improving, and the final solution
   is exactly the last streamed value — the certificate never reports
   something the stream did not announce. *)
let test_race_stream_monotone () =
  let problem = constrained_problem () in
  let events = ref [] in
  let r = Race.solve ~on_event:(fun ev -> events := ev :: !events) problem in
  let events = List.rev !events in
  Alcotest.(check bool) "at least one incumbent streamed" true
    (events <> []);
  Alcotest.(check int) "incumbents counted" (List.length events)
    r.Race.incumbents;
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) ->
        a.Race.test_time > b.Race.test_time && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving" true
    (strictly_decreasing events);
  match (r.Race.solution, List.rev events) with
  | Some (_, t), last :: _ ->
      Alcotest.(check int) "final = last streamed" last.Race.test_time t
  | _ -> Alcotest.fail "expected a feasible certified solution"

(* Without a complete engine no certificate can exist, but the best
   heuristic incumbent is still returned — the anytime contract. *)
let test_race_incomplete_portfolio () =
  let problem = constrained_problem () in
  let r =
    Race.solve ~engines:[ Race.Pack; Race.Greedy; Race.Anneal ] problem
  in
  Alcotest.(check bool) "feasible incumbent" true (r.Race.solution <> None);
  Alcotest.(check bool) "winner attributed" true (r.Race.winner <> None);
  if r.Race.optimal then
    Alcotest.(check (option string))
      "only the bound can certify without a complete engine"
      (Some "bound") r.Race.certificate

let test_race_expired_deadline () =
  let problem = constrained_problem () in
  let r = Race.solve ~deadline_s:(Clock.now_s () -. 1.0) problem in
  Alcotest.(check bool) "not optimal" false r.Race.optimal;
  Alcotest.(check (option string)) "no certificate" None r.Race.certificate;
  Alcotest.(check bool) "no solution (nothing ran)" true
    (r.Race.solution = None)

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

(* An instance the probe cannot close falls through to the heuristics,
   and DP resumes where the probe stopped to certify Exact's optimum,
   identically across job counts. *)
let test_probe_falls_through () =
  let problem = hard_problem () in
  let events = ref [] in
  let r = Race.solve ~on_event:(fun ev -> events := ev :: !events) problem in
  Alcotest.(check bool) "optimal" true r.Race.optimal;
  Alcotest.(check bool) "past the probe's budget" true
    (r.Race.nodes > Race.probe_node_budget);
  Alcotest.(check bool) "heuristics published" true
    (List.exists heuristic !events);
  let arch, t = architecture_of r in
  (match (Exact.solve problem).Exact.solution with
  | Some (_, t_exact) -> Alcotest.(check int) "exact optimum" t_exact t
  | None -> Alcotest.fail "exact found no solution");
  let arch2, t2 = architecture_of (race_with_jobs problem 2) in
  Alcotest.(check int) "jobs=2 time" t t2;
  check_architecture "jobs=2" arch2 ~widths:arch.Architecture.widths
    ~assignment:arch.Architecture.assignment

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
  let events = ref [] in
  let r =
    Race.solve
      ~deadline_s:(Clock.now_s () +. 0.1)
      ~on_event:(fun ev -> events := ev :: !events)
      problem
  in
  Alcotest.(check bool) "not optimal" false r.Race.optimal;
  Alcotest.(check bool) "incumbent returned" true (r.Race.solution <> None);
  Alcotest.(check bool) "heuristic incumbent streamed" true
    (List.exists heuristic !events)

let prop_race_matches_exact =
  QCheck.Test.make ~name:"race certifies the exact optimum" ~count:25
    Gen.spec_arbitrary (fun spec ->
      let problem = Cgen.problem_of_spec spec in
      let exact = Option.map snd (Exact.solve problem).Exact.solution in
      let r = Race.solve problem in
      r.Race.optimal
      && Option.map snd r.Race.solution = exact)

let suite =
  [ Alcotest.test_case "certifies the exact optimum" `Quick
      test_race_certifies_exact;
    Alcotest.test_case "identical across jobs in {1,2,4}" `Quick
      test_race_deterministic_across_jobs;
    Alcotest.test_case "streamed incumbents strictly improve" `Quick
      test_race_stream_monotone;
    Alcotest.test_case "heuristics-only race stays anytime" `Quick
      test_race_incomplete_portfolio;
    Alcotest.test_case "expired deadline yields a partial verdict" `Quick
      test_race_expired_deadline;
    Alcotest.test_case "probe closes easy instances with dp alone" `Quick
      test_probe_closes_easy_instances;
    Alcotest.test_case "probe falls through to the full race" `Quick
      test_probe_falls_through;
    Alcotest.test_case "deadline race with a probe stays anytime" `Quick
      test_probe_keeps_deadline_races_anytime;
    QCheck_alcotest.to_alcotest prop_race_matches_exact ]
