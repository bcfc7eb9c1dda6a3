module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Pack = Soctam_pack.Pack
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile
module Benchmarks = Soctam_soc.Benchmarks
module Race = Soctam_engine.Race
module Pool = Soctam_engine.Pool
module Cgen = Soctam_check.Gen

let s1 = Benchmarks.s1 ()

let test_candidates_staircase () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  for core = 0 to Problem.num_cores problem - 1 do
    let cands = Pack.candidates problem ~core in
    (match cands with
    | { Pack.width = 1; _ } :: _ -> ()
    | _ -> Alcotest.fail "staircase must start at width 1");
    let rec check = function
      | { Pack.width = w1; time = t1 } :: ({ Pack.width = w2; time = t2 } :: _ as rest) ->
          Alcotest.(check bool) "widths increase" true (w1 < w2);
          Alcotest.(check bool) "times strictly decrease" true (t1 > t2);
          check rest
      | _ -> ()
    in
    check cands;
    List.iter
      (fun { Pack.width; time } ->
        Alcotest.(check int) "candidate time matches the staircase" time
          (Problem.time problem ~core ~width))
      cands
  done

let test_greedy_respects_envelope () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  (* Mid-range envelope: above the hungriest core, below the sum. *)
  let p_max_mw = Pack.effective_budget problem ~p_max_mw:0.0 *. 1.5 in
  let packing = Pack.greedy ~p_max_mw problem in
  (match Pack.validate ~p_max_mw problem packing with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "greedy packing rejected: %s" msg);
  let budget = Pack.effective_budget problem ~p_max_mw in
  Alcotest.(check bool) "packing's profile respects the envelope" true
    (Profile.respects ~p_max_mw:budget (Profile.of_schedule problem packing))

(* Small enough for the exact packer to run to exhaustion (s1 at W=12
   is not: the branching explodes past any sane node budget). *)
let small_problem () =
  let soc = Benchmarks.random ~seed:5 ~num_cores:4 () in
  Problem.make soc ~num_buses:2 ~total_width:6

let test_exact_beats_partition () =
  let problem = small_problem () in
  let partition =
    match (Exact.solve problem).Exact.solution with
    | Some (_, t) -> t
    | None -> Alcotest.fail "instance must be partition-feasible"
  in
  let r = Pack.solve ~node_budget:500_000 problem in
  Alcotest.(check bool) "search exhausted" true r.Pack.optimal;
  match r.Pack.packing with
  | None -> Alcotest.fail "solve always returns a packing"
  | Some p ->
      Alcotest.(check bool) "pack <= partition" true
        (p.Rect_sched.makespan <= partition);
      Alcotest.(check bool) "pack >= lower bound" true
        (p.Rect_sched.makespan >= Pack.lower_bound problem)

let prop_packings_validate =
  QCheck.Test.make
    ~name:"pack: greedy packings validate under the instance envelope"
    ~count:60 Gen.pack_spec_arbitrary (fun spec ->
      let inst = Cgen.instance_of_spec spec in
      let problem = Cgen.problem_of_instance inst in
      let p_max_mw = inst.Cgen.p_max in
      let packing = Pack.greedy ?p_max_mw problem in
      match Pack.validate ?p_max_mw problem packing with
      | Ok () -> true
      | Error _ -> false)

let prop_exact_sandwich =
  QCheck.Test.make
    ~name:"pack: certified exact between lower bound and greedy"
    ~count:25 Gen.pack_spec_arbitrary (fun spec ->
      let inst = Cgen.instance_of_spec spec in
      let problem = Cgen.problem_of_instance inst in
      let p_max_mw = inst.Cgen.p_max in
      let lb = Pack.lower_bound ?p_max_mw problem in
      let greedy = Pack.greedy ?p_max_mw problem in
      let r = Pack.exact ?p_max_mw ~node_budget:100_000 problem in
      if not r.Pack.optimal then true (* budget blown: no claim *)
      else
        match r.Pack.packing with
        | None -> false (* unseeded exhaustion must find a packing *)
        | Some p ->
            lb <= p.Rect_sched.makespan
            && p.Rect_sched.makespan <= greedy.Rect_sched.makespan)

let prop_greedy_within_twice_lb =
  (* Not theorem-backed for arbitrary co-pair sets (serialization can
     force makespans past twice the area bound), so scoped to the
     constraint-free projection; empirically the worst observed ratio
     over 5000 seeds is 1.24. *)
  QCheck.Test.make
    ~name:"pack: greedy within twice the lower bound (co-free)" ~count:60
    Gen.spec_arbitrary (fun spec ->
      let inst = Cgen.instance_of_spec spec in
      let inst = { inst with Cgen.co = []; excl = []; p_max = None } in
      let problem = Cgen.problem_of_instance inst in
      let lb = Pack.lower_bound problem in
      (Pack.greedy problem).Rect_sched.makespan <= 2 * lb)

let prop_seeded_greedy_le_partition =
  QCheck.Test.make
    ~name:"pack: greedy seeded with the partition optimum never loses to it"
    ~count:30 Gen.spec_arbitrary (fun spec ->
      let problem = Cgen.problem_of_instance (Cgen.instance_of_spec spec) in
      match (Exact.solve problem).Exact.solution with
      | None -> true
      | Some (arch, t) ->
          (Pack.greedy ~seed_archs:[ arch ] problem).Rect_sched.makespan <= t)

let test_solve_pack_respects_envelope () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let p_max_mw = Pack.effective_budget problem ~p_max_mw:0.0 *. 1.2 in
  let r = Race.solve_pack ~p_max_mw problem in
  match r.Race.packing with
  | None -> Alcotest.fail "solve_pack must return a packing"
  | Some p -> (
      match Pack.validate ~p_max_mw problem p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "raced packing rejected: %s" msg)

let suite =
  [ Alcotest.test_case "candidates staircase" `Quick
      test_candidates_staircase;
    Alcotest.test_case "greedy respects envelope" `Quick
      test_greedy_respects_envelope;
    Alcotest.test_case "exact beats partition" `Quick
      test_exact_beats_partition;
    Alcotest.test_case "solve_pack respects envelope" `Quick
      test_solve_pack_respects_envelope;
    QCheck_alcotest.to_alcotest prop_packings_validate;
    QCheck_alcotest.to_alcotest prop_exact_sandwich;
    QCheck_alcotest.to_alcotest prop_greedy_within_twice_lb;
    QCheck_alcotest.to_alcotest prop_seeded_greedy_le_partition ]
