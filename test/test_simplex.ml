module Model = Soctam_ilp.Model
module Lin_expr = Soctam_ilp.Lin_expr
module Simplex = Soctam_ilp.Simplex

let optimal = function
  | Simplex.Optimal { point; objective; _ } -> (point, objective)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected iteration limit"

let test_textbook_max () =
  (* max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6). *)
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:infinity in
  let y = Model.add_continuous m ~name:"y" ~lb:0.0 ~ub:infinity in
  Model.add_constr m ~name:"c1" (Lin_expr.var x) Model.Le 4.0;
  Model.add_constr m ~name:"c2" (Lin_expr.var ~coeff:2.0 y) Model.Le 12.0;
  Model.add_constr m ~name:"c3"
    (Lin_expr.of_terms [ (x, 3.0); (y, 2.0) ])
    Model.Le 18.0;
  Model.set_objective m Model.Maximize
    (Lin_expr.of_terms [ (x, 3.0); (y, 5.0) ]);
  let point, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "objective" 36.0 obj;
  Alcotest.(check (float 1e-6)) "x" 2.0 point.(x);
  Alcotest.(check (float 1e-6)) "y" 6.0 point.(y)

let test_minimize_with_ge () =
  (* min 2x + 3y st x + y >= 10, x <= 6 -> x=6, y=4, obj=24. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:6.0 in
  let y = Model.add_continuous m ~name:"y" ~lb:0.0 ~ub:infinity in
  Model.add_constr m ~name:"cover"
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ])
    Model.Ge 10.0;
  Model.set_objective m Model.Minimize
    (Lin_expr.of_terms [ (x, 2.0); (y, 3.0) ]);
  let _, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "objective" 24.0 obj

let test_equality () =
  (* min x + y st x + 2y = 8, x - y = 2 -> x=4, y=2, obj=6. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:infinity in
  let y = Model.add_continuous m ~name:"y" ~lb:0.0 ~ub:infinity in
  Model.add_constr m ~name:"e1"
    (Lin_expr.of_terms [ (x, 1.0); (y, 2.0) ])
    Model.Eq 8.0;
  Model.add_constr m ~name:"e2"
    (Lin_expr.of_terms [ (x, 1.0); (y, -1.0) ])
    Model.Eq 2.0;
  Model.set_objective m Model.Minimize
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ]);
  let point, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "objective" 6.0 obj;
  Alcotest.(check (float 1e-6)) "x" 4.0 point.(x);
  Alcotest.(check (float 1e-6)) "y" 2.0 point.(y)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:3.0 in
  Model.add_constr m ~name:"low" (Lin_expr.var x) Model.Ge 5.0;
  Model.set_objective m Model.Minimize (Lin_expr.var x);
  match Simplex.solve m with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:infinity in
  Model.set_objective m Model.Maximize (Lin_expr.var x);
  match Simplex.solve m with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_nonzero_lower_bounds () =
  (* min x + y with x >= 2, y >= 3, x + y >= 7 -> 7. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:2.0 ~ub:infinity in
  let y = Model.add_continuous m ~name:"y" ~lb:3.0 ~ub:infinity in
  Model.add_constr m ~name:"c"
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ])
    Model.Ge 7.0;
  Model.set_objective m Model.Minimize
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ]);
  let point, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "objective" 7.0 obj;
  Alcotest.(check bool) "x within bounds" true (point.(x) >= 2.0 -. 1e-9)

let test_bound_overrides () =
  (* Same model; overriding x's lower bound to 5 shifts the optimum. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~name:"x" ~lb:0.0 ~ub:10.0 in
  Model.set_objective m Model.Minimize (Lin_expr.var x);
  let _, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "base optimum" 0.0 obj;
  let _, obj =
    optimal (Simplex.solve ~bound_overrides:[ (x, 5.0, 10.0) ] m)
  in
  Alcotest.(check (float 1e-6)) "overridden optimum" 5.0 obj;
  (match Simplex.solve ~bound_overrides:[ (x, 5.0, 4.0) ] m with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "contradictory override must be infeasible")

let test_degenerate () =
  (* Klee-Minty-ish degenerate corner; checks anti-cycling simply
     terminates with the right value. *)
  let m = Model.create () in
  let x = Array.init 3 (fun i ->
      Model.add_continuous m ~name:(Printf.sprintf "x%d" i) ~lb:0.0
        ~ub:infinity)
  in
  Model.add_constr m ~name:"c1" (Lin_expr.var x.(0)) Model.Le 1.0;
  Model.add_constr m ~name:"c2"
    (Lin_expr.of_terms [ (x.(0), 4.0); (x.(1), 1.0) ])
    Model.Le 8.0;
  Model.add_constr m ~name:"c3"
    (Lin_expr.of_terms [ (x.(0), 8.0); (x.(1), 4.0); (x.(2), 1.0) ])
    Model.Le 64.0;
  Model.set_objective m Model.Maximize
    (Lin_expr.of_terms [ (x.(0), 4.0); (x.(1), 2.0); (x.(2), 1.0) ]);
  let _, obj = optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "objective" 64.0 obj

(* Random boxed LPs with Le rows and non-negative rhs are always feasible
   (origin) and bounded (box): the solver must return a feasible optimal
   point at least as good as the origin. *)
let prop_random_boxed_lp =
  let open QCheck in
  let gen =
    Gen.(
      let* nvars = 1 -- 4 in
      let* nrows = 0 -- 4 in
      let* obj = list_size (return nvars) (float_bound_inclusive 10.0) in
      let* signs = list_size (return nvars) bool in
      let* rows =
        list_size (return nrows)
          (pair
             (list_size (return nvars) (float_bound_inclusive 5.0))
             (float_bound_inclusive 20.0))
      in
      return (nvars, obj, signs, rows))
  in
  QCheck.Test.make ~name:"random boxed LP is solved feasibly" ~count:200
    (QCheck.make gen) (fun (nvars, obj, signs, rows) ->
      let m = Model.create () in
      let xs =
        Array.init nvars (fun i ->
            Model.add_continuous m ~name:(Printf.sprintf "x%d" i) ~lb:0.0
              ~ub:10.0)
      in
      let objective =
        Lin_expr.of_terms
          (List.mapi
             (fun i (c, s) -> (xs.(i), if s then c else -.c))
             (List.combine obj signs))
      in
      Model.set_objective m Model.Minimize objective;
      List.iteri
        (fun r (coeffs, rhs) ->
          Model.add_constr m ~name:(Printf.sprintf "c%d" r)
            (Lin_expr.of_terms (List.mapi (fun i c -> (xs.(i), c)) coeffs))
            Model.Le rhs)
        rows;
      match Simplex.solve m with
      | Simplex.Optimal { point; objective = v; _ } ->
          (match Model.check_point ~tol:1e-5 m point with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "infeasible point: %s" msg);
          (* Origin is feasible, so the optimum is at most the origin's
             objective (0 after removing constants). *)
          v <= 1e-6
          && Float.abs (Lin_expr.eval objective point -. v) < 1e-5
      | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit ->
          false)

(* ---- Incremental handle: warm starts and native bounds. ---- *)

let verdict = function
  | Simplex.Optimal { objective; _ } -> Printf.sprintf "Optimal %.6f" objective
  | Simplex.Infeasible -> "Infeasible"
  | Simplex.Unbounded -> "Unbounded"
  | Simplex.Iteration_limit -> "Iteration_limit"

let same_outcome a b =
  match (a, b) with
  | Simplex.Optimal { objective = x; _ }, Simplex.Optimal { objective = y; _ }
    ->
      Float.abs (x -. y) <= 1e-5 *. (1.0 +. Float.abs x)
  | Simplex.Infeasible, Simplex.Infeasible -> true
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | _ -> false

(* Random boxed LP with mixed row senses; rhs >= 0 and Le-only keeps the
   plain generator always feasible, so mix in Ge/Eq rows with small rhs
   to exercise phase 1 and infeasible verdicts too. *)
let random_mixed_model (nvars, objs, rows) =
  let m = Model.create () in
  let xs =
    Array.init nvars (fun i ->
        Model.add_continuous m ~name:(Printf.sprintf "x%d" i) ~lb:0.0
          ~ub:8.0)
  in
  Model.set_objective m Model.Minimize
    (Lin_expr.of_terms (List.mapi (fun i c -> (xs.(i), c)) objs));
  List.iteri
    (fun r (coeffs, sense_pick, rhs) ->
      let expr =
        Lin_expr.of_terms (List.mapi (fun i c -> (xs.(i), c)) coeffs)
      in
      let sense =
        match sense_pick mod 4 with
        | 0 -> Model.Ge
        | 1 -> Model.Eq
        | _ -> Model.Le
      in
      Model.add_constr m ~name:(Printf.sprintf "c%d" r) expr sense rhs)
    rows;
  (m, xs)

let mixed_gen =
  let open QCheck in
  Gen.(
    let* nvars = 1 -- 4 in
    let* nrows = 1 -- 4 in
    let* objs =
      list_size (return nvars) (float_range (-5.0) 5.0)
    in
    let* rows =
      list_size (return nrows)
        (triple
           (list_size (return nvars) (float_range (-3.0) 3.0))
           (0 -- 3)
           (float_range 0.0 10.0))
    in
    let* overrides =
      list_size (1 -- 3)
        (triple (0 -- (nvars - 1)) (float_range 0.0 6.0)
           (float_range 0.0 4.0))
    in
    return (nvars, objs, rows, overrides))

(* Warm-started reoptimization from a snapshot basis must reach the same
   verdict and objective as a one-shot cold solve of the same bounds. A
   warm solve right after [basis] keeps the live factorization; with
   [~restore], a cold solve of the overridden LP runs in between and
   leaves another basis live, so the snapshot is refactorized from
   pristine columns instead. Either way the handle's
   [reuses] count says which path ran; overrides that empty a box (two
   on one variable can) are answered before either path. *)
let warm_equals_cold ~restore ~name =
  QCheck.Test.make ~name ~count:300 (QCheck.make mixed_gen)
    (fun (nvars, objs, rows, overrides) ->
      let m, _ = random_mixed_model (nvars, objs, rows) in
      let ov =
        List.map (fun (v, l, w) -> (v, l, l +. w)) overrides
      in
      let t = Simplex.Incremental.create m in
      match Simplex.Incremental.solve t with
      | Simplex.Optimal _ ->
          let snap = Simplex.Incremental.basis t in
          if restore then
            ignore (Simplex.Incremental.solve ~bound_overrides:ov t);
          let reuses = Simplex.Incremental.reuses t in
          let warm =
            Simplex.Incremental.solve ~basis:snap ~bound_overrides:ov t
          in
          let reused = Simplex.Incremental.reuses t > reuses in
          let cold = Simplex.solve ~bound_overrides:ov m in
          let box_empty =
            List.exists
              (fun (v, _, _) ->
                let lo, hi =
                  List.fold_left
                    (fun (lo, hi) (u, l, h) ->
                      if u = v then (Float.max lo l, Float.min hi h)
                      else (lo, hi))
                    (0.0, 8.0) ov
                in
                lo > hi)
              ov
          in
          if reused <> (not (restore || box_empty)) then
            QCheck.Test.fail_reportf "reused the live basis: %b" reused
          else if same_outcome warm cold then true
          else
            QCheck.Test.fail_reportf "warm %s <> cold %s" (verdict warm)
              (verdict cold)
      | _ -> true)

let prop_warm_equals_cold =
  warm_equals_cold ~restore:false
    ~name:"incremental warm start matches cold solve"

let prop_restored_warm_equals_cold =
  warm_equals_cold ~restore:true
    ~name:"restored warm start matches cold solve"

(* Native bound handling must agree with the pre-rewrite formulation:
   the same LP with every finite upper bound expressed as an explicit
   [x <= u] row instead. *)
let explicit_ub_clone m =
  let clone = Model.create () in
  let n = Model.num_vars m in
  for v = 0 to n - 1 do
    let info = Model.var_info m v in
    let v' =
      Model.add_var clone ~name:info.Model.name ~kind:Model.Continuous
        ~lb:info.Model.lb ~ub:infinity
    in
    assert (v' = v);
    if Float.is_finite info.Model.ub then
      Model.add_constr clone
        ~name:(Printf.sprintf "ub_%s" info.Model.name)
        (Lin_expr.var v) Model.Le info.Model.ub
  done;
  Array.iter
    (fun c -> Model.add_constr clone ~name:c.Model.cname c.Model.expr
        c.Model.sense c.Model.rhs)
    (Model.constrs m);
  let dir, obj = Model.objective m in
  Model.set_objective clone dir obj;
  clone

let prop_native_bounds_match_explicit_rows =
  QCheck.Test.make
    ~name:"native bounds match explicit upper-bound rows" ~count:300
    (QCheck.make mixed_gen)
    (fun (nvars, objs, rows, _) ->
      let m, _ = random_mixed_model (nvars, objs, rows) in
      let native = Simplex.solve m in
      let explicit = Simplex.solve (explicit_ub_clone m) in
      if same_outcome native explicit then true
      else
        QCheck.Test.fail_reportf "native %s <> explicit %s"
          (verdict native) (verdict explicit))

(* The same equivalence on real seed SOC MILP relaxations, whose big-M
   magnitudes and equality rows are far harsher than the random LPs. *)
let test_seed_soc_native_vs_explicit () =
  List.iter
    (fun (soc, num_buses, total_width) ->
      let problem =
        Soctam_core.Problem.make
          ~constraints:Soctam_core.Problem.no_constraints soc ~num_buses
          ~total_width
      in
      let m, _, _, _ = Soctam_core.Ilp_formulation.build problem in
      let label =
        Printf.sprintf "nb=%d W=%d relaxation" num_buses total_width
      in
      match (Simplex.solve m, Simplex.solve (explicit_ub_clone m)) with
      | ( Simplex.Optimal { objective = a; _ },
          Simplex.Optimal { objective = b; _ } ) ->
          Alcotest.(check (float 1e-4)) label a b
      | other, other' ->
          Alcotest.failf "%s: %s vs %s" label (verdict other)
            (verdict other'))
    [ (Soctam_soc.Benchmarks.s1 (), 2, 12);
      (Soctam_soc.Benchmarks.s1 (), 3, 16);
      (Soctam_soc.Benchmarks.s2 (), 2, 16) ]

(* Branching-style warm starts on a seed SOC model: fixing binaries one
   at a time from the parent basis must match one-shot cold solves.
   With [~restore], a cold solve of the opposite fixing between each
   snapshot and its warm solve leaves another basis live and forces the
   restore path instead of the reuse path. *)
let seed_soc_warm_chain ~restore () =
  let problem =
    Soctam_core.Problem.make
      ~constraints:Soctam_core.Problem.no_constraints
      (Soctam_soc.Benchmarks.s1 ()) ~num_buses:2 ~total_width:12
  in
  let m, _, _, _ = Soctam_core.Ilp_formulation.build problem in
  let t = Simplex.Incremental.create m in
  (match Simplex.Incremental.solve t with
  | Simplex.Optimal _ -> ()
  | r -> Alcotest.failf "root relaxation: %s" (verdict r));
  let ov = ref [] in
  List.iter
    (fun (v, value) ->
      let snap = Simplex.Incremental.basis t in
      if restore then
        ignore
          (Simplex.Incremental.solve
             ~bound_overrides:((v, 1.0 -. value, 1.0 -. value) :: !ov)
             t);
      ov := (v, value, value) :: !ov;
      let warm =
        Simplex.Incremental.solve ~basis:snap ~bound_overrides:!ov t
      in
      let cold = Simplex.solve ~bound_overrides:!ov m in
      Alcotest.(check bool)
        (Printf.sprintf "fix x%d=%g: warm %s vs cold %s" v value
           (verdict warm) (verdict cold))
        true (same_outcome warm cold))
    [ (0, 1.0); (3, 0.0); (5, 1.0); (7, 0.0); (9, 1.0) ];
  Alcotest.(check bool) "warm starts recorded" true
    (Simplex.Incremental.warm_starts t > 0);
  Alcotest.(check int) "live factorizations kept"
    (if restore then 0 else 5)
    (Simplex.Incremental.reuses t)

let suite =
  [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
    Alcotest.test_case "minimize with >=" `Quick test_minimize_with_ge;
    Alcotest.test_case "equality system" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "nonzero lower bounds" `Quick
      test_nonzero_lower_bounds;
    Alcotest.test_case "bound overrides" `Quick test_bound_overrides;
    Alcotest.test_case "degenerate corner" `Quick test_degenerate;
    QCheck_alcotest.to_alcotest prop_random_boxed_lp;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    QCheck_alcotest.to_alcotest prop_restored_warm_equals_cold;
    QCheck_alcotest.to_alcotest prop_native_bounds_match_explicit_rows;
    Alcotest.test_case "seed SOC native bounds vs explicit rows" `Quick
      test_seed_soc_native_vs_explicit;
    Alcotest.test_case "seed SOC warm-start chain" `Quick
      (seed_soc_warm_chain ~restore:false);
    Alcotest.test_case "seed SOC restored warm-start chain" `Quick
      (seed_soc_warm_chain ~restore:true) ]
