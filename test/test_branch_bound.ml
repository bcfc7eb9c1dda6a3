module Model = Soctam_ilp.Model
module Lin_expr = Soctam_ilp.Lin_expr
module Branch_bound = Soctam_ilp.Branch_bound
module Simplex = Soctam_ilp.Simplex
module Obs = Soctam_obs.Obs

let optimal = function
  | Branch_bound.Optimal { point; objective; _ } -> (point, objective)
  | Branch_bound.Infeasible _ -> Alcotest.fail "unexpected infeasible"
  | Branch_bound.Unbounded _ -> Alcotest.fail "unexpected unbounded"
  | Branch_bound.Node_limit _ -> Alcotest.fail "unexpected node limit"

let knapsack_model values weights capacity =
  let n = Array.length values in
  let m = Model.create () in
  let xs =
    Array.init n (fun i -> Model.add_binary m ~name:(Printf.sprintf "x%d" i))
  in
  Model.add_constr m ~name:"cap"
    (Lin_expr.of_terms
       (List.init n (fun i -> (xs.(i), float_of_int weights.(i)))))
    Model.Le (float_of_int capacity);
  Model.set_objective m Model.Maximize
    (Lin_expr.of_terms
       (List.init n (fun i -> (xs.(i), float_of_int values.(i)))));
  m

let knapsack_brute values weights capacity =
  let n = Array.length values in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let value = ref 0 and weight = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        value := !value + values.(i);
        weight := !weight + weights.(i)
      end
    done;
    if !weight <= capacity then best := max !best !value
  done;
  !best

let test_knapsack_known () =
  let m = knapsack_model [| 60; 100; 120 |] [| 10; 20; 30 |] 50 in
  let _, obj = optimal (Branch_bound.solve m) in
  Alcotest.(check (float 0.5)) "optimum" 220.0 obj

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_binary m ~name:"x" in
  let y = Model.add_binary m ~name:"y" in
  Model.add_constr m ~name:"c"
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ])
    Model.Ge 3.0;
  Model.set_objective m Model.Minimize (Lin_expr.var x);
  match Branch_bound.solve m with
  | Branch_bound.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_fractional_lp_integral_milp () =
  (* max x + y st 2x + 2y <= 3, binaries: LP gives 1.5, MILP 1. *)
  let m = Model.create () in
  let x = Model.add_binary m ~name:"x" in
  let y = Model.add_binary m ~name:"y" in
  Model.add_constr m ~name:"c"
    (Lin_expr.of_terms [ (x, 2.0); (y, 2.0) ])
    Model.Le 3.0;
  Model.set_objective m Model.Maximize
    (Lin_expr.of_terms [ (x, 1.0); (y, 1.0) ]);
  let point, obj = optimal (Branch_bound.solve m) in
  Alcotest.(check (float 1e-6)) "optimum" 1.0 obj;
  Alcotest.(check bool) "point integral" true
    (Array.for_all
       (fun v -> Float.abs (v -. Float.round v) < 1e-6)
       point)

let test_incumbent_does_not_cut_optimum () =
  let values = [| 7; 9; 5; 12 |] and weights = [| 3; 4; 2; 6 |] in
  let m = knapsack_model values weights 9 in
  let expected = float_of_int (knapsack_brute values weights 9) in
  let _, base = optimal (Branch_bound.solve m) in
  Alcotest.(check (float 0.5)) "no incumbent" expected base;
  (* For maximization the incumbent is a lower bound; passing the true
     optimum minus one must not lose it. *)
  let _, seeded =
    optimal (Branch_bound.solve ~incumbent:(expected -. 1.0) m)
  in
  Alcotest.(check (float 0.5)) "seeded incumbent" expected seeded

let test_node_limit () =
  let values = Array.init 12 (fun i -> 10 + (i * 3 mod 7)) in
  let weights = Array.init 12 (fun i -> 5 + (i * 2 mod 5)) in
  let m = knapsack_model values weights 30 in
  match Branch_bound.solve ~node_limit:1 m with
  | Branch_bound.Node_limit _ -> ()
  | Branch_bound.Optimal _ ->
      (* A single node can be enough when the LP relaxation is integral;
         accept but do not require it. *)
      ()
  | _ -> Alcotest.fail "expected node limit or optimal"

let test_dropped_nodes_downgrade () =
  (* A one-pivot LP budget cannot prove any node optimal, so every node
     is dropped and the solver must refuse to claim optimality. *)
  let values = [| 7; 9; 5; 12; 8 |] and weights = [| 3; 4; 2; 6; 5 |] in
  let m = knapsack_model values weights 9 in
  match Branch_bound.solve ~max_lp_pivots:1 m with
  | Branch_bound.Node_limit { stats; _ } ->
      Alcotest.(check bool) "dropped nodes counted" true
        (stats.Branch_bound.dropped_nodes > 0)
  | Branch_bound.Optimal _ ->
      Alcotest.fail "optimal claimed despite dropped nodes"
  | _ -> Alcotest.fail "expected node limit"

let test_warm_start_stats () =
  (* A knapsack that needs real branching: child nodes should be
     answered from the parent basis, with at most the root LP cold. *)
  let values = [| 7; 9; 5; 12; 8; 11 |]
  and weights = [| 3; 4; 2; 6; 5; 7 |] in
  let m = knapsack_model values weights 13 in
  let expected = float_of_int (knapsack_brute values weights 13) in
  match Branch_bound.solve m with
  | Branch_bound.Optimal { objective; stats; _ } ->
      Alcotest.(check (float 0.5)) "optimum" expected objective;
      Alcotest.(check bool) "branched" true (stats.Branch_bound.nodes > 1);
      Alcotest.(check bool) "warm starts recorded" true
        (stats.Branch_bound.warm_starts > 0);
      Alcotest.(check bool) "warm starts dominate" true
        (stats.Branch_bound.warm_starts >= stats.Branch_bound.cold_solves);
      Alcotest.(check int) "nothing dropped" 0
        stats.Branch_bound.dropped_nodes
  | _ -> Alcotest.fail "expected optimal"

(* min 10v + 100x - y  s.t.  2x + 2y + 3v = 5,  y <= 2.2,
   x, y in 0..10, v binary. The root LP is v = 0.2, y = 2.2; branching
   on v first, the child v = 0 has the feasible LP x = 0.3, y = 2.2 but
   no integer point (2x + 2y = 5 has none), which propagation proves by
   rounding x and y down to a contradiction. The optimum v = 1, y = 1
   costs 9. The search plunges into v = 0 (0.2 rounds down), so the
   v = 1 sibling comes next, with the root's basis still live: the
   traced node spans read cold (the root), none (closed) and reused. *)
let test_propagation_closes_child () =
  let m = Model.create () in
  let int_var name =
    Model.add_var m ~name ~kind:Model.Integer ~lb:0.0 ~ub:10.0
  in
  let x = int_var "x" and y = int_var "y" in
  let v = Model.add_binary m ~name:"v" in
  Model.add_constr m ~name:"parity"
    (Lin_expr.of_terms [ (x, 2.0); (y, 2.0); (v, 3.0) ])
    Model.Eq 5.0;
  Model.add_constr m ~name:"cap" (Lin_expr.var y) Model.Le 2.2;
  Model.set_objective m Model.Minimize
    (Lin_expr.of_terms [ (v, 10.0); (x, 100.0); (y, -1.0) ]);
  (match Simplex.solve ~bound_overrides:[ (v, 0.0, 0.0) ] m with
  | Simplex.Optimal _ -> ()
  | _ -> Alcotest.fail "the v = 0 child's LP should be feasible");
  let branch_priority u = if u = v then 1 else 0 in
  Obs.enable ();
  let result =
    Fun.protect ~finally:Obs.disable (fun () ->
        Branch_bound.solve ~branch_priority m)
  in
  let events, _ = Obs.drain () in
  let lps =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.name = "bb.node" then List.assoc_opt "lp" e.args else None)
      events
  in
  Alcotest.(check (list string)) "node LPs" [ "cold"; "none"; "reused" ] lps;
  match result with
  | Branch_bound.Optimal { point; objective; stats } ->
      Alcotest.(check (float 1e-6)) "optimum" 9.0 objective;
      Alcotest.(check (list (float 1e-6))) "point" [ 0.0; 1.0; 1.0 ]
        (Array.to_list point);
      Alcotest.(check int) "nodes" 3 stats.Branch_bound.nodes;
      Alcotest.(check int) "closed by propagation" 1
        stats.Branch_bound.propagated_nodes;
      Alcotest.(check int) "LPs solved" 2
        (stats.Branch_bound.warm_starts + stats.Branch_bound.cold_solves)
  | _ -> Alcotest.fail "expected optimal"

(* Brute force over the box 0..3 of a pure-integer model: the best
   objective in the model's direction, or None when no point fits. *)
let brute_force ~nvars ~rows ~obj ~obj_const ~maximize =
  let best = ref None in
  let x = Array.make nvars 0 in
  let dot coeffs =
    let acc = ref 0 in
    Array.iteri (fun i c -> acc := !acc + (c * x.(i))) coeffs;
    !acc
  in
  let rec loop i =
    if i = nvars then begin
      let fits (coeffs, sense, rhs) =
        let lhs = dot coeffs in
        match sense with
        | Model.Le -> lhs <= rhs
        | Model.Ge -> lhs >= rhs
        | Model.Eq -> lhs = rhs
      in
      if List.for_all fits rows then begin
        let value = dot obj + obj_const in
        match !best with
        | Some b when (if maximize then b >= value else b <= value) -> ()
        | _ -> best := Some value
      end
    end
    else
      for value = 0 to 3 do
        x.(i) <- value;
        loop (i + 1)
      done
  in
  loop 0;
  !best

let prop_random_multirow_program =
  (* Several rows of either sign and every sense, an objective constant
     and both directions: the propagator's sign, sense and cutoff
     branches, checked against enumeration. *)
  let open QCheck in
  let gen =
    Gen.(
      let* nvars = 2 -- 4 in
      let coeffs = array_size (return nvars) (-5 -- 5) in
      let* rows =
        list_size (2 -- 4)
          (triple coeffs (oneofl [ Model.Le; Model.Ge; Model.Eq ]) (-10 -- 10))
      in
      let* obj = coeffs in
      let* obj_const = -10 -- 10 in
      let* maximize = bool in
      let* integral = bool in
      return (nvars, rows, obj, obj_const, maximize, integral))
  in
  let print (nvars, rows, obj, obj_const, maximize, integral) =
    let arr a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "vars %d, %s [%s] + %d%s; rows: %s" nvars
      (if maximize then "max" else "min")
      (arr obj) obj_const
      (if integral then ", integral" else "")
      (String.concat "; "
         (List.map
            (fun (c, sense, rhs) ->
              let op =
                match sense with
                | Model.Le -> "<="
                | Model.Ge -> ">="
                | Model.Eq -> "="
              in
              Printf.sprintf "[%s] %s %d" (arr c) op rhs)
            rows))
  in
  QCheck.Test.make ~name:"random multi-row IP matches brute force" ~count:300
    (QCheck.make ~print gen)
    (fun (nvars, rows, obj, obj_const, maximize, integral) ->
      let m = Model.create () in
      let xs =
        Array.init nvars (fun i ->
            Model.add_var m ~name:(Printf.sprintf "x%d" i) ~kind:Model.Integer
              ~lb:0.0 ~ub:3.0)
      in
      let expr coeffs =
        Lin_expr.of_terms
          (List.mapi
             (fun i c -> (xs.(i), float_of_int c))
             (Array.to_list coeffs))
      in
      List.iteri
        (fun r (coeffs, sense, rhs) ->
          Model.add_constr m ~name:(Printf.sprintf "r%d" r) (expr coeffs) sense
            (float_of_int rhs))
        rows;
      Model.set_objective m
        (if maximize then Model.Maximize else Model.Minimize)
        (Lin_expr.add (expr obj) (Lin_expr.const (float_of_int obj_const)));
      let expected = brute_force ~nvars ~rows ~obj ~obj_const ~maximize in
      match (Branch_bound.solve ~integral_objective:integral m, expected) with
      | Branch_bound.Optimal { objective; point; _ }, Some best ->
          (match Model.check_point ~tol:1e-5 m point with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "bad point: %s" msg);
          Float.abs (objective -. float_of_int best) < 1e-6
      | Branch_bound.Infeasible _, None -> true
      | _ -> false)

let prop_random_knapsack =
  let open QCheck in
  let gen =
    Gen.(
      let* n = 1 -- 8 in
      let* values = list_size (return n) (1 -- 50) in
      let* weights = list_size (return n) (1 -- 20) in
      let* capacity = 1 -- 60 in
      return (Array.of_list values, Array.of_list weights, capacity))
  in
  QCheck.Test.make ~name:"random knapsack matches brute force" ~count:120
    (QCheck.make gen) (fun (values, weights, capacity) ->
      let m = knapsack_model values weights capacity in
      let expected = knapsack_brute values weights capacity in
      match Branch_bound.solve ~integral_objective:true m with
      | Branch_bound.Optimal { objective; point; _ } ->
          (match Model.check_point ~tol:1e-5 m point with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "bad point: %s" msg);
          Float.abs (objective -. float_of_int expected) < 0.5
      | _ -> false)

let prop_random_integer_program =
  (* min c.x over small random integer boxes with random Ge covers:
     compare against exhaustive enumeration. *)
  let open QCheck in
  let gen =
    Gen.(
      let* n = 1 -- 3 in
      let* costs = list_size (return n) (1 -- 9) in
      let* coeffs = list_size (return n) (1 -- 5) in
      let* rhs = 1 -- 12 in
      return (Array.of_list costs, Array.of_list coeffs, rhs))
  in
  QCheck.Test.make ~name:"random covering IP matches brute force" ~count:120
    (QCheck.make gen) (fun (costs, coeffs, rhs) ->
      let n = Array.length costs in
      let ub = 4 in
      let m = Model.create () in
      let xs =
        Array.init n (fun i ->
            Model.add_var m ~name:(Printf.sprintf "x%d" i)
              ~kind:Model.Integer ~lb:0.0 ~ub:(float_of_int ub))
      in
      Model.add_constr m ~name:"cover"
        (Lin_expr.of_terms
           (List.init n (fun i -> (xs.(i), float_of_int coeffs.(i)))))
        Model.Ge (float_of_int rhs);
      Model.set_objective m Model.Minimize
        (Lin_expr.of_terms
           (List.init n (fun i -> (xs.(i), float_of_int costs.(i)))));
      (* Brute force. *)
      let best = ref max_int in
      let x = Array.make n 0 in
      let rec loop i =
        if i = n then begin
          let lhs = ref 0 and cost = ref 0 in
          for k = 0 to n - 1 do
            lhs := !lhs + (coeffs.(k) * x.(k));
            cost := !cost + (costs.(k) * x.(k))
          done;
          if !lhs >= rhs then best := min !best !cost
        end
        else
          for v = 0 to ub do
            x.(i) <- v;
            loop (i + 1)
          done
      in
      loop 0;
      match Branch_bound.solve ~integral_objective:true m with
      | Branch_bound.Optimal { objective; _ } ->
          !best < max_int && Float.abs (objective -. float_of_int !best) < 0.5
      | Branch_bound.Infeasible _ -> !best = max_int
      | _ -> false)

let suite =
  [ Alcotest.test_case "knapsack known" `Quick test_knapsack_known;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "fractional LP, integral MILP" `Quick
      test_fractional_lp_integral_milp;
    Alcotest.test_case "incumbent keeps optimum" `Quick
      test_incumbent_does_not_cut_optimum;
    Alcotest.test_case "node limit" `Quick test_node_limit;
    Alcotest.test_case "dropped nodes downgrade result" `Quick
      test_dropped_nodes_downgrade;
    Alcotest.test_case "warm-start statistics" `Quick test_warm_start_stats;
    Alcotest.test_case "propagation closes an integer-empty child" `Quick
      test_propagation_closes_child;
    QCheck_alcotest.to_alcotest prop_random_knapsack;
    QCheck_alcotest.to_alcotest prop_random_integer_program;
    QCheck_alcotest.to_alcotest prop_random_multirow_program ]
