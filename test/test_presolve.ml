(* The MILP strengthening pipeline: presolve reductions, clique cuts
   and their end-to-end equivalence guarantee (presolve and cuts change
   search effort, never answers). *)

module Model = Soctam_ilp.Model
module Lin_expr = Soctam_ilp.Lin_expr
module Branch_bound = Soctam_ilp.Branch_bound
module Presolve = Soctam_ilp.Presolve
module Cuts = Soctam_ilp.Cuts
module Problem = Soctam_core.Problem
module Ilp = Soctam_core.Ilp_formulation
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks

let s1 = Benchmarks.s1 ()

let reduce_exn model =
  match Presolve.reduce model with
  | Ok pre -> pre
  | Error msg -> Alcotest.failf "presolve claims infeasible: %s" msg

(* --- presolve mechanics ------------------------------------------- *)

let test_merge_chain () =
  (* A co-assignment chain (0,1),(1,2) merges three x-columns per bus
     into one representative. *)
  let constraints =
    { Problem.exclusion_pairs = []; co_pairs = [ (0, 1); (1, 2) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:8 in
  let model, _, _, _ = Ilp.build problem in
  let pre = reduce_exn model in
  Alcotest.(check bool)
    "chain merges at least two variables per bus" true
    (pre.Presolve.stats.Presolve.merged >= 4);
  Alcotest.(check int) "eliminated = merged + fixed"
    (pre.Presolve.stats.Presolve.merged + pre.Presolve.stats.Presolve.fixed)
    (Presolve.eliminated pre);
  Alcotest.(check int) "reduced model lost exactly that many columns"
    (Model.num_vars model - Presolve.eliminated pre)
    (Model.num_vars pre.Presolve.reduced);
  (* The disposition table and the reduced->original map must be
     mutually consistent: a reduced column's original representative
     is Kept as that very column. *)
  Array.iteri
    (fun k orig ->
      match pre.Presolve.disposition.(orig) with
      | Presolve.Kept k' ->
          Alcotest.(check int) "orig_of_reduced round-trips" k k'
      | Presolve.Fixed _ ->
          Alcotest.fail "representative of a reduced column marked Fixed")
    pre.Presolve.orig_of_reduced

let test_postsolve_round_trip () =
  (* Solve the reduced model, postsolve the point, and check it against
     the ORIGINAL model's rows and bounds — the strongest form of "the
     reduction preserved the feasible set". *)
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4); (4, 5) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:3 ~total_width:9 in
  let model, _, _, _ = Ilp.build problem in
  let pre = reduce_exn model in
  Alcotest.(check bool) "something was eliminated" true
    (Presolve.eliminated pre > 0);
  match Branch_bound.solve ~integral_objective:true pre.Presolve.reduced with
  | Branch_bound.Optimal { point; objective; _ } -> (
      let lifted = Presolve.postsolve pre point in
      Alcotest.(check int) "lifted point has original dimension"
        (Model.num_vars model) (Array.length lifted);
      (match Model.check_point model lifted with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "lifted point violates original: %s" msg);
      (* The reduced objective carries the eliminated contribution as a
         constant, so evaluating the original objective on the lifted
         point must reproduce the reduced optimum. *)
      let _, obj_expr = Model.objective model in
      Alcotest.(check (float 1e-6)) "objective survives postsolve" objective
        (Lin_expr.eval obj_expr lifted))
  | _ -> Alcotest.fail "reduced model should stay feasible"

let test_presolve_detects_contradiction () =
  (* The same pair both excluded and co-assigned, on every bus, is a
     contradiction the presolve can prove without any search. *)
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1) ]; co_pairs = [ (0, 1) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:2 ~total_width:8 in
  let r = Ilp.solve problem in
  Alcotest.(check bool) "verdict is exact" true r.Ilp.optimal;
  Alcotest.(check bool) "infeasible" true (r.Ilp.solution = None);
  Alcotest.(check int) "no branch-and-bound nodes spent" 0
    r.Ilp.stats.Ilp.bb_nodes

(* --- clique machinery --------------------------------------------- *)

let is_clique edges clique =
  let mem a b = List.mem (min a b, max a b) edges in
  List.for_all
    (fun a -> List.for_all (fun b -> a = b || mem a b) clique)
    clique

let test_clique_cover_shape () =
  (* Triangle + pendant edge: the cover must contain the 3-clique and
     cover the pendant edge separately. *)
  let edges = [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let cover = Cuts.edge_cover_cliques ~n:4 edges in
  Alcotest.(check bool) "triangle found" true
    (List.mem [ 0; 1; 2 ] cover);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge (%d,%d) covered" a b)
        true
        (List.exists (fun c -> List.mem a c && List.mem b c) cover))
    edges

let prop_clique_rows_valid =
  let open QCheck in
  (* Random conflict graphs on up to 8 vertices. *)
  let edges_gen =
    Gen.(
      list_size (int_bound 14)
        (pair (int_bound 7) (int_bound 7)))
  in
  Test.make ~name:"clique cover rows are valid and deterministic"
    ~count:200
    (make ~print:(fun l ->
         String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l))
       edges_gen)
    (fun raw ->
      let edges = Cuts.normalize_edges raw in
      let cover = Cuts.edge_cover_cliques ~n:8 raw in
      (* Determinism: a second run from the same raw list is identical. *)
      cover = Cuts.edge_cover_cliques ~n:8 raw
      (* Cover: every edge appears in some clique, every clique is a
         real clique of size >= 2, sorted ascending. *)
      && List.for_all
           (fun (a, b) ->
             List.exists (fun c -> List.mem a c && List.mem b c) cover)
           edges
      && List.for_all
           (fun c ->
             List.length c >= 2
             && List.sort compare c = c
             && is_clique edges c)
           cover)

(* --- end-to-end equivalence --------------------------------------- *)

let exact_time problem =
  match (Exact.solve problem).Exact.solution with
  | Some (_, t) -> Some t
  | None -> None

let prop_pipeline_equivalence =
  QCheck.Test.make
    ~name:"presolve/cuts toggles never change the ILP answer" ~count:15
    Gen.spec_arbitrary
    (fun spec ->
      let spec = { spec with Gen.total_width = min spec.Gen.total_width 8 } in
      let problem = Gen.problem_of_spec spec in
      let reference = exact_time problem in
      List.for_all
        (fun (presolve, cuts) ->
          let r = Ilp.solve ~presolve ~cuts problem in
          let t =
            match r.Ilp.solution with Some (_, t) -> Some t | None -> None
          in
          r.Ilp.optimal && t = reference)
        [ (true, true); (true, false); (false, true); (false, false) ])

let prop_assignment_pipeline_equivalence =
  QCheck.Test.make
    ~name:"P1 presolve/cuts toggles never change the answer" ~count:15
    Gen.spec_arbitrary
    (fun spec ->
      let problem = Gen.problem_of_spec spec in
      let nb = spec.Gen.num_buses and w = spec.Gen.total_width in
      let widths = Array.make nb (w / nb) in
      widths.(0) <- widths.(0) + (w mod nb);
      let solve ~presolve ~cuts =
        let r = Ilp.solve_assignment ~presolve ~cuts problem ~widths in
        ( r.Ilp.optimal,
          match r.Ilp.solution with Some (_, t) -> Some t | None -> None )
      in
      let ok_ref, t_ref = solve ~presolve:true ~cuts:true in
      ok_ref
      && List.for_all
           (fun (presolve, cuts) -> solve ~presolve ~cuts = (true, t_ref))
           [ (true, false); (false, true); (false, false) ])

let test_stats_surface_strengthening () =
  (* The quick-bench CI gate rides on these two counters: a conflict
     triangle must report clique rows and a co pair must report
     eliminated variables. *)
  let constraints =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4) ] }
  in
  let problem = Problem.make s1 ~constraints ~num_buses:3 ~total_width:8 in
  let r = Ilp.solve problem in
  Alcotest.(check bool) "optimal" true r.Ilp.optimal;
  Alcotest.(check bool) "cuts_added >= 1" true
    (r.Ilp.stats.Ilp.cuts_added >= 1);
  Alcotest.(check bool) "presolve_fixed >= 1" true
    (r.Ilp.stats.Ilp.presolve_fixed >= 1);
  let off = Ilp.solve ~presolve:false ~cuts:false problem in
  Alcotest.(check int) "toggles off report zero cuts" 0
    off.Ilp.stats.Ilp.cuts_added;
  Alcotest.(check int) "toggles off report zero eliminations" 0
    off.Ilp.stats.Ilp.presolve_fixed;
  Alcotest.(check bool) "same answer either way" true
    (Option.map snd r.Ilp.solution = Option.map snd off.Ilp.solution)

let suite =
  [ Alcotest.test_case "co chain merges variables" `Quick test_merge_chain;
    Alcotest.test_case "postsolve round trip" `Quick
      test_postsolve_round_trip;
    Alcotest.test_case "contradiction caught without search" `Quick
      test_presolve_detects_contradiction;
    Alcotest.test_case "clique cover shape" `Quick test_clique_cover_shape;
    QCheck_alcotest.to_alcotest prop_clique_rows_valid;
    QCheck_alcotest.to_alcotest prop_pipeline_equivalence;
    QCheck_alcotest.to_alcotest prop_assignment_pipeline_equivalence;
    Alcotest.test_case "stats surface strengthening" `Quick
      test_stats_surface_strengthening ]
