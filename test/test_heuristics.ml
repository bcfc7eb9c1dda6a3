module Problem = Soctam_core.Problem
module Heuristics = Soctam_core.Heuristics
module Exact = Soctam_core.Exact
module Cost = Soctam_core.Cost
module Benchmarks = Soctam_soc.Benchmarks

let s1 = Benchmarks.s1 ()

let test_greedy_feasible () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 8; 8 |] with
  | None -> Alcotest.fail "greedy should succeed unconstrained"
  | Some { Heuristics.architecture; test_time } ->
      let e = Cost.evaluate problem architecture in
      Alcotest.(check bool) "feasible" true e.Cost.feasible;
      Alcotest.(check int) "time consistent" e.Cost.test_time test_time

let test_greedy_respects_exclusions () =
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (2, 3) ]; co_pairs = [] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 8; 8 |] with
  | None -> Alcotest.fail "greedy should place these"
  | Some { Heuristics.architecture; _ } ->
      let a = architecture.Soctam_core.Architecture.assignment in
      Alcotest.(check bool) "0 and 1 split" true (a.(0) <> a.(1));
      Alcotest.(check bool) "2 and 3 split" true (a.(2) <> a.(3))

let test_improve_never_worsens () =
  let problem = Problem.make s1 ~num_buses:2 ~total_width:16 in
  match Heuristics.greedy problem ~widths:[| 15; 1 |] with
  | None -> Alcotest.fail "greedy should succeed"
  | Some start ->
      let better = Heuristics.improve problem start in
      Alcotest.(check bool) "no regression" true
        (better.Heuristics.test_time <= start.Heuristics.test_time);
      let e = Cost.evaluate problem better.Heuristics.architecture in
      Alcotest.(check bool) "still feasible" true e.Cost.feasible

let test_solve_deterministic () =
  let problem = Problem.make s1 ~num_buses:3 ~total_width:18 in
  match (Heuristics.solve ~seed:7 problem, Heuristics.solve ~seed:7 problem) with
  | Some a, Some b ->
      Alcotest.(check int) "same seed, same value" a.Heuristics.test_time
        b.Heuristics.test_time
  | _ -> Alcotest.fail "heuristic should find something"

let prop_heuristic_bounded_by_optimum =
  QCheck.Test.make
    ~name:"heuristic is feasible and no better than the optimum" ~count:60
    Gen.spec_arbitrary (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let optimum =
        match (Exact.solve problem).Exact.solution with
        | Some (_, t) -> Some t
        | None -> None
      in
      match (Heuristics.solve problem, optimum) with
      | None, _ -> true (* heuristic may fail on constrained instances *)
      | Some _, None -> false (* cannot beat an infeasible instance *)
      | Some h, Some opt ->
          let e = Cost.evaluate problem h.Heuristics.architecture in
          e.Cost.feasible
          && e.Cost.test_time = h.Heuristics.test_time
          && h.Heuristics.test_time >= opt)

let prop_heuristic_often_optimal_unconstrained =
  (* Not a guarantee, but on tiny unconstrained instances with generous
     restarts the gap must close; this guards against silent regressions
     that would make the baseline useless. *)
  QCheck.Test.make ~name:"heuristic within 30% on tiny instances" ~count:40
    Gen.spec_arbitrary (fun spec ->
      let spec = { spec with Gen.num_cores = min spec.Gen.num_cores 4 } in
      let problem = Gen.problem_of_spec ~constrained:false spec in
      match
        ((Exact.solve problem).Exact.solution, Heuristics.solve ~restarts:16 problem)
      with
      | Some (_, opt), Some h ->
          float_of_int h.Heuristics.test_time <= 1.3 *. float_of_int opt
      | _, _ -> false)

(* --- the search matches the reference copy ([Heuristics_ref]) --- *)

module Ref = Heuristics_ref
module Architecture = Soctam_core.Architecture

(* Specs up to 12 cores, past [Gen.spec_arbitrary]'s 6. *)
let wide_spec_arbitrary =
  QCheck.make ~print:Gen.spec_print
    (QCheck.Gen.map
       (fun seed -> Gen.spec_of_seed ~max_cores:12 ~seed ())
       (QCheck.Gen.int_bound 1_000_000))

let view arch test_time =
  ( Array.to_list arch.Architecture.widths,
    Array.to_list arch.Architecture.assignment,
    test_time )

let view_outcome (o : Heuristics.outcome) = view o.architecture o.test_time
let view_ref (o : Ref.outcome) = view o.Ref.architecture o.Ref.test_time

let to_ref (o : Heuristics.outcome) =
  { Ref.architecture = o.architecture; test_time = o.test_time }

let same (o : Heuristics.outcome option) (r : Ref.outcome option) =
  Option.map view_outcome o = Option.map view_ref r

(* Both problems a spec gives: with and without its constraint pairs. *)
let problems spec =
  List.map (fun constrained -> Gen.problem_of_spec ~constrained spec)
    [ true; false ]

let partitions spec problem =
  let nb = Problem.num_buses problem and w = Problem.total_width problem in
  let state = Random.State.make [| spec.Gen.seed |] in
  Ref.balanced_partition ~total:w ~parts:nb
  :: List.init 4 (fun _ -> Ref.random_partition state ~total:w ~parts:nb)

(* [solve] returns the reference's outcome, fires [report] with the same
   sequence and polls [should_stop] as often; the last case stops the
   search after its third poll. *)
let prop_solve_matches_reference =
  QCheck.Test.make ~name:"solve runs the reference search" ~count:150
    wide_spec_arbitrary (fun spec ->
      List.for_all
        (fun problem ->
          List.for_all
            (fun (seed, restarts, stop_after) ->
              let stopper () =
                let polls = ref 0 in
                ( polls,
                  fun () ->
                    incr polls;
                    !polls > stop_after )
              in
              let got = ref [] and want = ref [] in
              let got_polls, should_stop = stopper () in
              let o =
                Heuristics.solve ~seed ~restarts ~should_stop
                  ~report:(fun o -> got := view_outcome o :: !got)
                  problem
              in
              let want_polls, should_stop = stopper () in
              let r =
                Ref.solve ~seed ~restarts ~should_stop
                  ~report:(fun o -> want := view_ref o :: !want)
                  problem
              in
              same o r && !got = !want && !got_polls = !want_polls)
            [ (1, 0, max_int); (1, 8, max_int); (7, 0, max_int);
              (7, 8, max_int); (7, 8, 3) ])
        (problems spec))

let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"greedy matches the reference" ~count:150
    wide_spec_arbitrary (fun spec ->
      List.for_all
        (fun problem ->
          List.for_all
            (fun widths ->
              same
                (Heuristics.greedy problem ~widths)
                (Ref.greedy problem ~widths))
            (partitions spec problem))
        (problems spec))

(* From greedy outcomes, and from starts [Cost.evaluate] rejects: every
   core on bus 0 (which breaks every exclusion pair), one wire over the
   budget, and one bus too many. *)
let prop_improve_matches_reference =
  QCheck.Test.make ~name:"improve matches the reference" ~count:150
    wide_spec_arbitrary (fun spec ->
      List.for_all
        (fun problem ->
          let n = Problem.num_cores problem
          and nb = Problem.num_buses problem
          and w = Problem.total_width problem in
          let start ~total ~parts =
            let architecture =
              Architecture.make
                ~widths:(Ref.balanced_partition ~total ~parts)
                ~assignment:(Array.make n 0)
            in
            let test_time =
              if total = w && parts = nb then
                Cost.test_time problem architecture
              else max_int
            in
            { Heuristics.architecture; test_time }
          in
          let greedy =
            List.filter_map
              (fun widths -> Heuristics.greedy problem ~widths)
              (partitions spec problem)
          in
          let starts =
            greedy
            @ [ start ~total:w ~parts:nb; start ~total:(w + 1) ~parts:nb ]
            @ if w > nb then [ start ~total:w ~parts:(nb + 1) ] else []
          in
          List.for_all
            (fun s ->
              view_outcome (Heuristics.improve problem s)
              = view_ref (Ref.improve problem (to_ref s)))
            starts)
        (problems spec))

let suite =
  [ Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
    Alcotest.test_case "greedy respects exclusions" `Quick
      test_greedy_respects_exclusions;
    Alcotest.test_case "improve never worsens" `Quick
      test_improve_never_worsens;
    Alcotest.test_case "solve deterministic" `Quick test_solve_deterministic;
    QCheck_alcotest.to_alcotest prop_heuristic_bounded_by_optimum;
    QCheck_alcotest.to_alcotest prop_heuristic_often_optimal_unconstrained;
    QCheck_alcotest.to_alcotest prop_solve_matches_reference;
    QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
    QCheck_alcotest.to_alcotest prop_improve_matches_reference ]
