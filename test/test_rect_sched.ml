module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Cost = Soctam_core.Cost
module Exact = Soctam_core.Exact
module Rect_sched = Soctam_sched.Rect_sched
module Pack = Soctam_pack.Pack
module Benchmarks = Soctam_soc.Benchmarks

let s1 = Benchmarks.s1 ()

(* Keeps the exact packing pass of [Pack.solve] test-sized: past it the
   seeded incumbent stands. *)
let node_budget = 20_000

(* The packer seeded with the fixed-bus optimum, as bench table B1 runs
   it. *)
let solve_seeded problem =
  let optimum = (Exact.solve problem).Exact.solution in
  let r =
    Pack.solve ~node_budget
      ~seed_archs:(Option.to_list (Option.map fst optimum))
      problem
  in
  (Option.map snd optimum, r.Pack.packing)

let test_of_architecture () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let arch =
    Architecture.make ~widths:[| 10; 6 |] ~assignment:[| 0; 1; 0; 1; 0; 1 |]
  in
  let sched = Rect_sched.of_architecture problem arch in
  Alcotest.(check int) "same makespan" (Cost.test_time problem arch)
    sched.Rect_sched.makespan;
  (match Rect_sched.validate problem sched with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid conversion: %s" msg);
  Alcotest.(check int) "one rectangle per core" 6
    (List.length sched.Rect_sched.placements)

(* A test one cycle short of its time model, first on its bus so that
   neither an overlap nor the makespan gives it away: only the duration
   check can. *)
let test_validate_catches_wrong_duration () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let arch =
    Architecture.make ~widths:[| 10; 6 |] ~assignment:[| 0; 1; 0; 1; 0; 1 |]
  in
  let sched = Rect_sched.of_architecture problem arch in
  let corrupt =
    { sched with
      Rect_sched.placements =
        List.map
          (fun (p : Rect_sched.placement) ->
            if p.core = 0 then { p with finish = p.finish - 1 } else p)
          sched.Rect_sched.placements }
  in
  match Rect_sched.validate problem corrupt with
  | Ok () -> Alcotest.fail "wrong duration not caught"
  | Error _ -> ()

let test_greedy_valid () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let sched = Pack.greedy problem in
  match Rect_sched.validate problem sched with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "greedy invalid: %s" msg

let test_solve_never_worse_than_fixed () =
  List.iter
    (fun w ->
      let problem = Problem.make s1 ~num_buses:2 ~total_width:w in
      match solve_seeded problem with
      | None, _ -> Alcotest.fail "feasible"
      | _, None -> Alcotest.fail "solve must succeed"
      | Some fixed, Some sched ->
          Alcotest.(check bool)
            (Printf.sprintf "flexible <= fixed at W=%d" w)
            true
            (sched.Rect_sched.makespan <= fixed))
    [ 8; 16; 24 ]

let test_lower_bound_sound () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match solve_seeded problem with
  | _, None -> Alcotest.fail "solve must succeed"
  | _, Some sched ->
      Alcotest.(check bool) "lb <= achieved" true
        (Rect_sched.lower_bound problem <= sched.Rect_sched.makespan)

let test_co_pairs_serialized () =
  let constraints =
    { Problem.exclusion_pairs = []; co_pairs = [ (2, 4) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:16 in
  let sched = Pack.greedy problem in
  (match Rect_sched.validate problem sched with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "co-pair violated: %s" msg);
  let find core =
    List.find
      (fun p -> p.Rect_sched.core = core)
      sched.Rect_sched.placements
  in
  let p2 = find 2 and p4 = find 4 in
  Alcotest.(check bool) "no time overlap" true
    (p2.Rect_sched.finish <= p4.Rect_sched.start
    || p4.Rect_sched.finish <= p2.Rect_sched.start)

let test_validate_catches_overlap () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let sched = Pack.greedy problem in
  let corrupted =
    { sched with
      Rect_sched.placements =
        List.map
          (fun p -> { p with Rect_sched.wire_lo = 0; start = 0;
                      finish = p.Rect_sched.finish - p.Rect_sched.start })
          sched.Rect_sched.placements }
  in
  match Rect_sched.validate problem corrupted with
  | Ok () -> Alcotest.fail "overlap not caught"
  | Error _ -> ()

let prop_greedy_always_valid =
  QCheck.Test.make ~name:"greedy rectangle schedules always validate"
    ~count:60 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let sched = Pack.greedy problem in
      match Rect_sched.validate problem sched with
      | Ok () -> true
      | Error _ -> false)

let prop_flexible_never_worse =
  QCheck.Test.make
    ~name:"flexible scheduling never loses to the fixed-bus optimum"
    ~count:40 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec ~constrained:false spec in
      match solve_seeded problem with
      | Some fixed, Some sched -> sched.Rect_sched.makespan <= fixed
      | None, _ -> true
      | Some _, None -> false)

let suite =
  [ Alcotest.test_case "of_architecture" `Quick test_of_architecture;
    Alcotest.test_case "greedy valid" `Quick test_greedy_valid;
    Alcotest.test_case "never worse than fixed" `Quick
      test_solve_never_worse_than_fixed;
    Alcotest.test_case "lower bound sound" `Quick test_lower_bound_sound;
    Alcotest.test_case "co-pairs serialized" `Quick test_co_pairs_serialized;
    Alcotest.test_case "validate catches overlap" `Quick
      test_validate_catches_overlap;
    Alcotest.test_case "validate catches a wrong duration" `Quick
      test_validate_catches_wrong_duration;
    QCheck_alcotest.to_alcotest prop_greedy_always_valid;
    QCheck_alcotest.to_alcotest prop_flexible_never_worse ]
