module Problem = Soctam_core.Problem
module Ilp = Soctam_core.Ilp_formulation
module Exact = Soctam_core.Exact
module Verify = Soctam_core.Verify
module Model = Soctam_ilp.Model
module Benchmarks = Soctam_soc.Benchmarks

module Floorplan = Soctam_layout.Floorplan
module Conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts
module Test_time = Soctam_soc.Test_time
module Obs = Soctam_obs.Obs

let s1 = Benchmarks.s1 ()

(* An [rnd:<seed>:<cores>] instance with its pairs derived as the daemon
   derives them: exclusions from the placed floorplan, co-assignments
   from the power budget. *)
let rnd_problem ?d_max ?p_max ~seed ~cores ~num_buses ~total_width () =
  let soc = Benchmarks.random ~seed ~num_cores:cores () in
  let exclusion_pairs =
    match d_max with
    | None -> []
    | Some d -> Conflicts.exclusion_pairs (Floorplan.place soc) ~d_max_mm:d
  in
  let co_pairs =
    match p_max with
    | None -> []
    | Some p -> Power_conflicts.co_assignment_pairs soc ~p_max_mw:p
  in
  Problem.make ~time_model:Test_time.Serialization
    ~constraints:{ Problem.exclusion_pairs; co_pairs }
    soc ~num_buses ~total_width

let ilp_time ?formulation ?symmetry_breaking ?seed_incumbent problem =
  let r = Ilp.solve ?formulation ?symmetry_breaking ?seed_incumbent problem in
  Alcotest.(check bool) "proven optimal" true r.Ilp.optimal;
  match r.Ilp.solution with Some (_, t) -> Some t | None -> None

let exact_time problem =
  match (Exact.solve problem).Exact.solution with
  | Some (_, t) -> Some t
  | None -> None

let test_matches_exact_s1 () =
  List.iter
    (fun (nb, w) ->
      let problem = Problem.make s1 ~num_buses:nb ~total_width:w in
      Alcotest.(check (option int))
        (Printf.sprintf "S1 nb=%d W=%d" nb w)
        (exact_time problem) (ilp_time problem))
    [ (1, 6); (2, 10); (2, 16); (3, 12) ]

let test_matches_exact_constrained () =
  let constraints =
    { Problem.exclusion_pairs = [ (0, 2); (1, 5) ]; co_pairs = [ (3, 4) ] }
  in
  let problem =
    Problem.make s1 ~constraints ~num_buses:2 ~total_width:12
  in
  Alcotest.(check (option int)) "constrained optimum" (exact_time problem)
    (ilp_time problem)

let test_infeasible_detected () =
  (* A 3-clique of exclusions on 2 buses. *)
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ]; co_pairs = [] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:8 in
  Alcotest.(check (option int)) "ilp infeasible" None (ilp_time problem);
  Alcotest.(check (option int)) "exact agrees" None (exact_time problem)

let test_contradictory_constraints () =
  (* Same pair excluded and co-assigned. *)
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1) ]; co_pairs = [ (0, 1) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:8 in
  Alcotest.(check (option int)) "ilp infeasible" None (ilp_time problem)

let test_formulations_agree () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:10 in
  Alcotest.(check (option int))
    "big-M = linearized"
    (ilp_time ~formulation:Ilp.Big_m problem)
    (ilp_time ~formulation:Ilp.Linearized problem)

let test_symmetry_breaking_agrees () =
  let problem = Problem.make s1 ~num_buses:3 ~total_width:12 in
  Alcotest.(check (option int))
    "symmetry on = off"
    (ilp_time ~symmetry_breaking:true problem)
    (ilp_time ~symmetry_breaking:false problem)

let test_no_incumbent_agrees () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:12 in
  Alcotest.(check (option int))
    "seeded = unseeded"
    (ilp_time ~seed_incumbent:true problem)
    (ilp_time ~seed_incumbent:false problem)

let test_model_shape () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:10 in
  let model, x, delta, _ = Ilp.build problem in
  (* 6 cores x 2 buses + 2 buses x 9 widths + T. *)
  Alcotest.(check int) "variables" ((6 * 2) + (2 * 9) + 1)
    (Model.num_vars model);
  Alcotest.(check int) "x rows" 6 (Array.length x);
  Alcotest.(check int) "delta cols" 9 (Array.length delta.(0));
  Alcotest.(check bool) "constraints present" true
    (Model.num_constrs model > 6 + 2 + 1)

let test_solutions_verified () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:14 in
  match (Ilp.solve problem).Ilp.solution with
  | None -> Alcotest.fail "feasible"
  | Some (arch, t) -> (
      match Verify.check problem arch ~claimed_time:t with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "verifier rejected ILP solution: %s" msg)

let prop_ilp_matches_exact_random =
  QCheck.Test.make ~name:"ILP matches exact solver on random instances"
    ~count:25 Gen.spec_arbitrary (fun spec ->
      (* Cap the width so each MILP stays small. *)
      let spec = { spec with Gen.total_width = min spec.Gen.total_width 8 } in
      let problem = Gen.problem_of_spec spec in
      let r = Ilp.solve problem in
      let i = match r.Ilp.solution with Some (_, t) -> Some t | None -> None in
      r.Ilp.optimal && i = exact_time problem)

(* A seeded search whose budget runs out before it has a point of its
   own answers with its verified greedy seed, without claiming
   optimality. A positive time limit too small to finish any node
   triggers it; the instance's seed is its optimum (1157295, per
   Exact). *)
let test_seed_fallback () =
  let problem =
    rnd_problem ~seed:28348171 ~cores:7 ~num_buses:2 ~total_width:16
      ~d_max:4.55 ()
  in
  let r = Ilp.solve ~time_limit_s:1e-9 problem in
  Alcotest.(check (option int)) "seed returned" (Some 1157295)
    (Option.map snd r.Ilp.solution);
  Alcotest.(check bool) "not claimed optimal" false r.Ilp.optimal;
  Alcotest.(check bool) "fallback flagged" true r.Ilp.stats.Ilp.seed_fallback;
  Alcotest.(check (option int)) "seeded bound" (Some 1157295)
    r.Ilp.stats.Ilp.seeded_bound;
  (match r.Ilp.solution with
  | Some (arch, t) ->
      Alcotest.(check (result unit string)) "verified" (Ok ())
        (Verify.check problem arch ~claimed_time:t)
  | None -> ());
  (* Unseeded (as in races) there is no seed to fall back on. *)
  let cold = Ilp.solve ~seed_incumbent:false ~time_limit_s:1e-9 problem in
  Alcotest.(check bool) "no fallback unseeded" false
    cold.Ilp.stats.Ilp.seed_fallback;
  Alcotest.(check bool) "no answer unseeded" true (cold.Ilp.solution = None)

(* The same instance with no budget: the seeded search, cut off just
   above the seed (its optimum), must find that optimum itself and
   prove it. Warm node LPs that trusted drifted basic values used to
   prune every node below the cutoff here and end on the seed
   fallback. *)
let test_seed_cutoff_proven () =
  let problem =
    rnd_problem ~seed:28348171 ~cores:7 ~num_buses:2 ~total_width:16
      ~d_max:4.55 ()
  in
  let r = Ilp.solve problem in
  Alcotest.(check (option int)) "exact optimum" (Some 1157295)
    (exact_time problem);
  Alcotest.(check (option int)) "test time" (Some 1157295)
    (Option.map snd r.Ilp.solution);
  Alcotest.(check bool) "proven optimal" true r.Ilp.optimal;
  Alcotest.(check bool) "no fallback" false r.Ilp.stats.Ilp.seed_fallback

(* Benchmark-pool instances whose root LP ends with a basic value out
   of bounds by 1e-8 to 1e-7 after Forrest-Tomlin updates: the audit
   refreshes the basis from pristine data and passes, where a search
   that trusted the first audit gave up with [optimal = false]. *)
let test_audit_refresh () =
  List.iter
    (fun (seed, cores, num_buses, total_width, d_max, p_max) ->
      let problem =
        rnd_problem ~seed ~cores ~num_buses ~total_width ~d_max ~p_max ()
      in
      let r = Ilp.solve problem in
      let name = Printf.sprintf "rnd:%d:%d" seed cores in
      Alcotest.(check bool) (name ^ " optimal") true r.Ilp.optimal;
      Alcotest.(check (option int)) (name ^ " test time")
        (exact_time problem)
        (Option.map snd r.Ilp.solution))
    [ (214242185, 5, 3, 9, 2.7, 1570.6); (770970341, 5, 3, 8, 2.34, 1658.9) ]

(* Integral incumbents are stored at their integer value. On this
   instance two integral nodes both score 401439, the second about 1e-7
   lower in floating point; a float incumbent would count the second as
   an improvement. *)
let test_integral_incumbent_once () =
  let problem =
    rnd_problem ~seed:250387757 ~cores:6 ~num_buses:3 ~total_width:8
      ~d_max:2.45 ~p_max:727.4 ()
  in
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable (fun () -> Ilp.solve problem) in
  let _, metrics = Obs.drain () in
  let incumbents =
    List.fold_left
      (fun acc (m : Obs.metric) ->
        if m.name = "bb.incumbent" then acc + m.count else acc)
      0 metrics
  in
  Alcotest.(check (option int)) "test time" (Some 401439)
    (Option.map snd r.Ilp.solution);
  Alcotest.(check bool) "optimal" true r.Ilp.optimal;
  Alcotest.(check int) "one incumbent" 1 incumbents

(* Tripwire for the search and its node LPs: three MILP benchmark-pool
   instances solved as the daemon solves them (seeded, presolve and
   cuts on), with their exact work counters. The search order
   (best-first with plunging), domain propagation and the propagated
   box handed to each node LP decide which nodes get an LP; the LP
   arithmetic, with its factorizations kept through a plunge and
   refreshed before a verdict, decides how each pivots. These counts
   fingerprint both. If a change moves any of them, the 21,000-candidate
   MILP screen ([perfbench/bench.exe --screen-ilp 0:21000]) must be
   rerun and must print nothing. The heuristic seed is pinned too: on
   all three instances it already finds the optimum, so a changed seed
   fails here before it moves a node count. *)
let test_node_lp_tripwire () =
  List.iter
    (fun ( (seed, cores, num_buses, total_width, d_max, p_max),
           (time, nodes, pivots, warm, cold, refactors, cuts, fixed) ) ->
      let problem =
        rnd_problem ~seed ~cores ~num_buses ~total_width ~d_max ~p_max ()
      in
      let r = Ilp.solve problem in
      let st = r.Ilp.stats in
      let name = Printf.sprintf "rnd:%d:%d" seed cores in
      Alcotest.(check bool) (name ^ " optimal") true r.Ilp.optimal;
      Alcotest.(check (option int)) (name ^ " test time") (Some time)
        (Option.map snd r.Ilp.solution);
      Alcotest.(check (option int)) (name ^ " seeded bound") (Some time)
        st.Ilp.seeded_bound;
      Alcotest.(check (list int))
        (name ^ " nodes/pivots/warm/cold/refactorizations/cuts/fixed")
        [ nodes; pivots; warm; cold; refactors; cuts; fixed ]
        [ st.Ilp.bb_nodes;
          st.Ilp.lp_pivots;
          st.Ilp.warm_starts;
          st.Ilp.cold_solves;
          st.Ilp.refactorizations;
          st.Ilp.cuts_added;
          st.Ilp.presolve_fixed ])
    [ ((654433233, 6, 2, 12, 2.56, 185.0), (14616, 21, 102, 13, 1, 6, 0, 2));
      ( (57411906, 6, 3, 8, 2.89, 1039.3),
        (4240785, 31, 197, 22, 1, 16, 6, 3) );
      ((637489711, 4, 2, 8, 3.83, 1030.0), (822739, 17, 43, 9, 1, 4, 0, 4)) ]

let suite =
  [ Alcotest.test_case "matches exact on S1" `Slow test_matches_exact_s1;
    Alcotest.test_case "matches exact constrained" `Quick
      test_matches_exact_constrained;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible_detected;
    Alcotest.test_case "contradictory constraints" `Quick
      test_contradictory_constraints;
    Alcotest.test_case "formulations agree" `Slow test_formulations_agree;
    Alcotest.test_case "symmetry toggling agrees" `Slow
      test_symmetry_breaking_agrees;
    Alcotest.test_case "incumbent seeding agrees" `Quick
      test_no_incumbent_agrees;
    Alcotest.test_case "model shape" `Quick test_model_shape;
    Alcotest.test_case "solutions verified" `Quick test_solutions_verified;
    Alcotest.test_case "seeded search falls back to its seed" `Quick
      test_seed_fallback;
    Alcotest.test_case "seeded search proves its seed optimal" `Quick
      test_seed_cutoff_proven;
    Alcotest.test_case "audit refreshes before giving up" `Quick
      test_audit_refresh;
    Alcotest.test_case "node-LP counters tripwire" `Quick
      test_node_lp_tripwire;
    Alcotest.test_case "integral incumbent stored once" `Quick
      test_integral_incumbent_once;
    QCheck_alcotest.to_alcotest prop_ilp_matches_exact_random ]

(* --- assignment-only sub-problem (P1) --- *)

let test_assignment_matches_dp () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  List.iter
    (fun widths ->
      let dp = Soctam_core.Dp_assign.solve problem ~widths in
      let ilp = Ilp.solve_assignment problem ~widths in
      Alcotest.(check bool) "proven optimal" true ilp.Ilp.optimal;
      let dp_t =
        match dp with
        | Some o -> Some o.Soctam_core.Dp_assign.test_time
        | None -> None
      in
      let ilp_t =
        match ilp.Ilp.solution with Some (_, t) -> Some t | None -> None
      in
      Alcotest.(check (option int)) "P1 agreement" dp_t ilp_t;
      match ilp.Ilp.solution with
      | Some (arch, t) -> (
          Alcotest.(check (list int))
            "uses the given widths"
            (Array.to_list widths)
            (Array.to_list arch.Soctam_core.Architecture.widths);
          match Verify.check problem arch ~claimed_time:t with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "verify: %s" msg)
      | None -> ())
    [ [| 11; 5 |]; [| 8; 8 |]; [| 15; 1 |] ]

let test_assignment_constrained () =
  let constraints =
    { Problem.exclusion_pairs = [ (0, 2) ]; co_pairs = [ (3, 5) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:12 in
  let widths = [| 7; 5 |] in
  let dp = Soctam_core.Dp_assign.solve problem ~widths in
  let ilp = Ilp.solve_assignment problem ~widths in
  let dp_t =
    match dp with
    | Some o -> Some o.Soctam_core.Dp_assign.test_time
    | None -> None
  in
  let ilp_t =
    match ilp.Ilp.solution with Some (_, t) -> Some t | None -> None
  in
  Alcotest.(check (option int)) "constrained agreement" dp_t ilp_t

let test_assignment_validation () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:12 in
  Alcotest.check_raises "bus count"
    (Invalid_argument
       "Ilp_formulation.solve_assignment: widths/bus-count mismatch")
    (fun () -> ignore (Ilp.solve_assignment problem ~widths:[| 12 |]));
  Alcotest.check_raises "budget"
    (Invalid_argument
       "Ilp_formulation.solve_assignment: width budget mismatch")
    (fun () -> ignore (Ilp.solve_assignment problem ~widths:[| 6; 5 |]))

let prop_assignment_matches_dp_random =
  QCheck.Test.make ~name:"P1 ILP matches assignment DP on random instances"
    ~count:25 Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let nb = spec.Gen.num_buses and w = spec.Gen.total_width in
      let widths = Array.make nb 1 in
      let state = Random.State.make [| spec.Gen.seed; 11 |] in
      for _ = 1 to w - nb do
        let b = Random.State.int state nb in
        widths.(b) <- widths.(b) + 1
      done;
      let dp = Soctam_core.Dp_assign.solve problem ~widths in
      let ilp = Ilp.solve_assignment problem ~widths in
      let dp_t =
        match dp with
        | Some o -> Some o.Soctam_core.Dp_assign.test_time
        | None -> None
      in
      let ilp_t =
        match ilp.Ilp.solution with Some (_, t) -> Some t | None -> None
      in
      ilp.Ilp.optimal && dp_t = ilp_t)

(* P1 runs through the same presolve and branch-and-bound search as P,
   so its work is pinned as the node-LP tripwire pins P's. The instance
   is the tripwire's second, at P's optimal widths 6/1/1: the presolve
   eliminates 3 variables and the clique cover installs 6 rows of size
   >= 3. *)
let test_assignment_tripwire () =
  let problem =
    rnd_problem ~seed:57411906 ~cores:6 ~num_buses:3 ~total_width:8
      ~d_max:2.89 ~p_max:1039.3 ()
  in
  let r = Ilp.solve_assignment problem ~widths:[| 6; 1; 1 |] in
  let st = r.Ilp.stats in
  Alcotest.(check bool) "optimal" true r.Ilp.optimal;
  Alcotest.(check (option int)) "test time" (Some 4240785)
    (Option.map snd r.Ilp.solution);
  Alcotest.(check (list int))
    "nodes/pivots/warm/cold/refactorizations/cuts/fixed"
    [ 5; 58; 3; 1; 2; 6; 3 ]
    [ st.Ilp.bb_nodes;
      st.Ilp.lp_pivots;
      st.Ilp.warm_starts;
      st.Ilp.cold_solves;
      st.Ilp.refactorizations;
      st.Ilp.cuts_added;
      st.Ilp.presolve_fixed ]

let assignment_suite =
  [ Alcotest.test_case "P1 matches DP" `Quick test_assignment_matches_dp;
    Alcotest.test_case "P1 constrained" `Quick test_assignment_constrained;
    Alcotest.test_case "P1 validation" `Quick test_assignment_validation;
    Alcotest.test_case "P1 node-LP counters tripwire" `Quick
      test_assignment_tripwire;
    QCheck_alcotest.to_alcotest prop_assignment_matches_dp_random ]
