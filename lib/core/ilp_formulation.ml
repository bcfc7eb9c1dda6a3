module Model = Soctam_ilp.Model
module Lin_expr = Soctam_ilp.Lin_expr
module Branch_bound = Soctam_ilp.Branch_bound
module Presolve = Soctam_ilp.Presolve
module Cuts = Soctam_ilp.Cuts
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type formulation = Big_m | Linearized

type solve_stats = {
  variables : int;
  constraints : int;
  bb_nodes : int;
  lp_pivots : int;
  max_depth : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  dropped_nodes : int;
  propagated_nodes : int;
  seeded_bound : int option;
  seed_fallback : bool;
  cuts_added : int;
  presolve_fixed : int;
  elapsed_s : float;
}

type result = {
  solution : (Architecture.t * int) option;
  optimal : bool;
  stats : solve_stats;
}

(* Model pieces P and P1 share; [build] and [build_assignment] add them
   in the same order under the same names. *)

(* Assignment variables: [x.(i).(j)] is core [i] riding bus [j]. *)
let add_assignment_vars model ~n ~nb =
  Array.init n (fun i ->
      Array.init nb (fun j ->
          Model.add_binary model ~name:(Printf.sprintf "x_%d_%d" i j)))

(* Safe upper bound on T: all cores serialized on a width-1 bus. *)
let horizon problem =
  let acc = ref 0 in
  for i = 0 to Problem.num_cores problem - 1 do
    acc := !acc + Problem.time problem ~core:i ~width:1
  done;
  float_of_int !acc

(* Each core rides exactly one bus. *)
let add_assign_rows model x ~nb =
  Array.iteri
    (fun i xi ->
      Model.add_constr model ~name:(Printf.sprintf "assign_%d" i)
        (Lin_expr.of_terms (List.init nb (fun j -> (xi.(j), 1.0))))
        Model.Eq 1.0)
    x

(* Exclusion and co-assignment rows. Exclusions without cuts: one
   pairwise row [x_aj + x_bj <= 1] per pair and bus. With cuts: a
   greedy clique cover of the conflict graph — each clique [C]
   contributes [sum_{i in C} x_ij <= 1], which dominates all its
   pairwise rows, so the pairwise rows inside larger cliques disappear
   entirely. Cliques of size 2 keep the pairwise [excl_*] naming.
   Co-assignment pairs add [x_aj = x_bj] per bus. *)
let add_pair_rows model x ~n ~nb ~cuts problem =
  let pair_rows tag coeff sense rhs (a, b) =
    for j = 0 to nb - 1 do
      Model.add_constr model
        ~name:(Printf.sprintf "%s_%d_%d_%d" tag a b j)
        (Lin_expr.of_terms [ (x.(a).(j), 1.0); (x.(b).(j), coeff) ])
        sense rhs
    done
  in
  let excl_rows = pair_rows "excl" 1.0 Model.Le 1.0 in
  let { Problem.exclusion_pairs; co_pairs } = Problem.constraints problem in
  if cuts then
    List.iteri
      (fun idx clique ->
        match clique with
        | [ a; b ] -> excl_rows (a, b)
        | _ ->
            for j = 0 to nb - 1 do
              Model.add_constr model
                ~name:(Printf.sprintf "clique_%d_%d" idx j)
                (Lin_expr.of_terms
                   (List.map (fun i -> (x.(i).(j), 1.0)) clique))
                Model.Le 1.0
            done)
      (Cuts.edge_cover_cliques ~n exclusion_pairs)
  else List.iter excl_rows exclusion_pairs;
  List.iter (pair_rows "co" (-1.0) Model.Eq 0.0) co_pairs

let build ?(formulation = Big_m) ?(symmetry_breaking = true) ?(cuts = false)
    problem =
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  let kmax = w - nb + 1 in
  let model = Model.create () in
  let x = add_assignment_vars model ~n ~nb in
  let delta =
    Array.init nb (fun j ->
        Array.init kmax (fun k ->
            Model.add_binary model
              ~name:(Printf.sprintf "d_%d_%d" j (k + 1))))
  in
  let lower_bound = float_of_int (Problem.lower_bound problem) in
  let t_var =
    Model.add_continuous model ~name:"T" ~lb:lower_bound ~ub:(horizon problem)
  in
  add_assign_rows model x ~nb;
  (* Each bus takes exactly one width. *)
  for j = 0 to nb - 1 do
    let row =
      Lin_expr.of_terms (List.init kmax (fun k -> (delta.(j).(k), 1.0)))
    in
    Model.add_constr model ~name:(Printf.sprintf "width_%d" j) row
      Model.Eq 1.0
  done;
  (* Widths sum to the budget. *)
  let width_sum =
    Lin_expr.sum
      (List.concat
         (List.init nb (fun j ->
              List.init kmax (fun k ->
                  Lin_expr.var ~coeff:(float_of_int (k + 1)) delta.(j).(k)))))
  in
  Model.add_constr model ~name:"width_budget" width_sum Model.Eq
    (float_of_int w);
  let time i k = float_of_int (Problem.time problem ~core:i ~width:k) in
  (match formulation with
  | Big_m ->
      (* Σ_i t_i(k) x_ij − T ≤ M_k (1 − delta_jk). *)
      for j = 0 to nb - 1 do
        for k = 1 to kmax do
          (* T >= lower_bound holds in every feasible point (it is T's
             lower bound), so M_k = Σ_i t_i(k) − LB is still valid. *)
          let big_m = ref 0.0 in
          for i = 0 to n - 1 do
            big_m := !big_m +. time i k
          done;
          big_m := Float.max 0.0 (!big_m -. lower_bound);
          let row =
            Lin_expr.sum
              (Lin_expr.var ~coeff:(-1.0) t_var
              :: Lin_expr.var ~coeff:!big_m delta.(j).(k - 1)
              :: List.init n (fun i ->
                     Lin_expr.var ~coeff:(time i k) x.(i).(j)))
          in
          Model.add_constr model
            ~name:(Printf.sprintf "load_%d_%d" j k)
            row Model.Le !big_m
        done
      done
  | Linearized ->
      (* y_ijk = x_ij ∧ delta_jk, exact per-bus load rows. *)
      let y =
        Array.init n (fun i ->
            Array.init nb (fun j ->
                Array.init kmax (fun k ->
                    Model.add_continuous model
                      ~name:(Printf.sprintf "y_%d_%d_%d" i j (k + 1))
                      ~lb:0.0 ~ub:1.0)))
      in
      for i = 0 to n - 1 do
        for j = 0 to nb - 1 do
          for k = 0 to kmax - 1 do
            let name tag = Printf.sprintf "lin_%s_%d_%d_%d" tag i j (k + 1) in
            Model.add_constr model ~name:(name "ge")
              (Lin_expr.of_terms
                 [ (y.(i).(j).(k), 1.0); (x.(i).(j), -1.0);
                   (delta.(j).(k), -1.0) ])
              Model.Ge (-1.0);
            Model.add_constr model ~name:(name "lex")
              (Lin_expr.of_terms [ (y.(i).(j).(k), 1.0); (x.(i).(j), -1.0) ])
              Model.Le 0.0;
            Model.add_constr model ~name:(name "led")
              (Lin_expr.of_terms
                 [ (y.(i).(j).(k), 1.0); (delta.(j).(k), -1.0) ])
              Model.Le 0.0
          done
        done
      done;
      for j = 0 to nb - 1 do
        let terms = ref [ (t_var, -1.0) ] in
        for i = 0 to n - 1 do
          for k = 0 to kmax - 1 do
            terms := (y.(i).(j).(k), time i (k + 1)) :: !terms
          done
        done;
        Model.add_constr model
          ~name:(Printf.sprintf "load_%d" j)
          (Lin_expr.of_terms !terms) Model.Le 0.0
      done);
  add_pair_rows model x ~n ~nb ~cuts problem;
  if symmetry_breaking then
    for j = 0 to nb - 2 do
      let width_of j =
        Lin_expr.sum
          (List.init kmax (fun k ->
               Lin_expr.var ~coeff:(float_of_int (k + 1)) delta.(j).(k)))
      in
      Model.add_constr model
        ~name:(Printf.sprintf "sym_%d" j)
        (Lin_expr.sub (width_of j) (width_of (j + 1)))
        Model.Ge 0.0
    done;
  Model.set_objective model Model.Minimize (Lin_expr.var t_var);
  (model, x, delta, t_var)

(* Assignment-only formulation (P1): widths fixed, so each bus's load row
   is exact — no width indicators, no big-M. *)
let build_assignment ~cuts problem ~widths =
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  if Array.length widths <> nb then
    invalid_arg "Ilp_formulation.solve_assignment: widths/bus-count mismatch";
  if Array.fold_left ( + ) 0 widths <> Problem.total_width problem then
    invalid_arg "Ilp_formulation.solve_assignment: width budget mismatch";
  Array.iter
    (fun w ->
      if w < 1 then
        invalid_arg "Ilp_formulation.solve_assignment: width < 1")
    widths;
  let model = Model.create () in
  let x = add_assignment_vars model ~n ~nb in
  let t_var =
    Model.add_continuous model ~name:"T" ~lb:0.0 ~ub:(horizon problem)
  in
  add_assign_rows model x ~nb;
  for j = 0 to nb - 1 do
    let terms = ref [ (t_var, -1.0) ] in
    for i = 0 to n - 1 do
      terms :=
        (x.(i).(j), float_of_int (Problem.time problem ~core:i ~width:widths.(j)))
        :: !terms
    done;
    Model.add_constr model
      ~name:(Printf.sprintf "load_%d" j)
      (Lin_expr.of_terms !terms) Model.Le 0.0
  done;
  add_pair_rows model x ~n ~nb ~cuts problem;
  Model.set_objective model Model.Minimize (Lin_expr.var t_var);
  (model, x)

(* The architecture a point selects: each core on the bus whose [x]
   variable is set, under [widths]. *)
let decode x ~widths point =
  let assignment =
    Array.map
      (fun xi ->
        let bus = ref 0 in
        Array.iteri (fun j v -> if point.(v) > 0.5 then bus := j) xi;
        !bus)
      x
  in
  Architecture.make ~widths ~assignment

(* The bus widths a point of P selects through its [delta] indicators. *)
let selected_widths delta point =
  Array.map
    (fun dj ->
      let chosen = ref 0 in
      Array.iteri (fun k v -> if point.(v) > 0.5 then chosen := k + 1) dj;
      !chosen)
    delta

(* Per-request deadlines (absolute [Clock.now_s] instants, e.g. from a
   server's admission timestamp plus the client's budget) fold into the
   relative time-limit path: the effective budget is the smaller of the
   explicit limit and the time remaining until the deadline, clamped at
   zero so an already-expired deadline yields an immediate
   [Node_limit]-style partial verdict instead of any search. *)
let effective_time_limit ?time_limit_s ?deadline_s ~start () =
  match deadline_s with
  | None -> time_limit_s
  | Some d ->
      let remaining = Float.max 0.0 (d -. start) in
      Some
        (match time_limit_s with
        | None -> remaining
        | Some l -> Float.min l remaining)

(* Branch-and-bound work of a solve that never searched. *)
let zero_bb_stats =
  { Branch_bound.nodes = 0;
    lp_pivots = 0;
    max_depth = 0;
    warm_starts = 0;
    cold_solves = 0;
    refactorizations = 0;
    dropped_nodes = 0;
    propagated_nodes = 0;
    elapsed_s = 0.0 }

(* The statistics of a solve of [model] begun at [start]: [stats] is
   its branch-and-bound work, [cuts] its clique rows and [fixed] the
   variables the presolve eliminated. *)
let mk_stats model ~start ?seeded_bound ?(seed_fallback = false) ~cuts
    ?(fixed = 0) (stats : Branch_bound.stats) =
  { variables = Model.num_vars model;
    constraints = Model.num_constrs model;
    bb_nodes = stats.Branch_bound.nodes;
    lp_pivots = stats.Branch_bound.lp_pivots;
    max_depth = stats.Branch_bound.max_depth;
    warm_starts = stats.Branch_bound.warm_starts;
    cold_solves = stats.Branch_bound.cold_solves;
    refactorizations = stats.Branch_bound.refactorizations;
    dropped_nodes = stats.Branch_bound.dropped_nodes;
    propagated_nodes = stats.Branch_bound.propagated_nodes;
    seeded_bound;
    seed_fallback;
    cuts_added = cuts;
    presolve_fixed = fixed;
    elapsed_s = Clock.elapsed_s ~since:start }

(* The one MILP pipeline behind [solve] (P) and [solve_assignment] (P1):
   presolve [model] (built from [problem] with [~cuts]), search the
   result by branch and bound, and postsolve each point the search
   returns for [decode] to read as an architecture. With [~seed] the
   greedy heuristic primes the search, once the presolve has passed and
   while the budget is unspent, and its verified architecture is the
   answer when the search ends with no point of its own.
   [branch_priority] is over [model]'s variables. *)
let search problem model ~start ?time_limit_s ?deadline_s ~presolve ~cuts
    ~seed ?branch_priority decode =
  let time_limit_s = effective_time_limit ?time_limit_s ?deadline_s ~start () in
  (* The clique rows the build installed: its cover cliques of size >= 3,
     once per bus. *)
  let cover_rows =
    if cuts then
      let n = Problem.num_cores problem and nb = Problem.num_buses problem in
      List.fold_left
        (fun acc c -> match c with _ :: _ :: _ :: _ -> acc + nb | _ -> acc)
        0
        (Cuts.edge_cover_cliques ~n
           (Problem.constraints problem).Problem.exclusion_pairs)
    else 0
  in
  let reduced =
    if presolve then
      Obs.span "ilp.presolve" (fun () ->
          Result.map Option.some (Presolve.reduce model))
    else Ok None
  in
  match reduced with
  | Error _msg ->
      (* The presolve proved the instance infeasible before any search:
         the verdict is exact, with zero branch-and-bound work. *)
      Obs.incr "ilp.presolve_infeasible";
      { solution = None;
        optimal = true;
        stats = mk_stats model ~start ~cuts:cover_rows zero_bb_stats }
  | Ok pre ->
      let search_model, to_orig, fixed, branch_priority =
        match pre with
        | None -> (model, Fun.id, 0, branch_priority)
        | Some p ->
            ( p.Presolve.reduced,
              Presolve.postsolve p,
              Presolve.eliminated p,
              Option.map
                (fun prio v -> prio p.Presolve.orig_of_reduced.(v))
                branch_priority )
      in
      (* With the budget already exhausted (expired deadline) the answer
         is an immediate partial verdict; don't burn time computing a
         seed incumbent that cannot be used. *)
      let expired =
        match time_limit_s with Some l -> l <= 0.0 | None -> false
      in
      let seed =
        if seed && not expired then
          Obs.span "ilp.incumbent" (fun () -> Heuristics.solve problem)
        else None
      in
      let seeded_bound =
        Option.map (fun { Heuristics.test_time; _ } -> test_time) seed
      in
      (* Branch-and-bound prunes nodes whose bound reaches the
         incumbent, so pass a value one above the heuristic time to keep
         an equal-valued optimum reachable. *)
      let incumbent =
        Option.map (fun t -> float_of_int (t + 1)) seeded_bound
      in
      let outcome =
        Branch_bound.solve ?time_limit_s ~integral_objective:true ?incumbent
          ?branch_priority search_model
      in
      let finish ?(optimal = true) ?seed_fallback stats solution =
        { solution;
          optimal;
          stats =
            mk_stats model ~start ?seeded_bound ?seed_fallback
              ~cuts:cover_rows ~fixed stats }
      in
      let answer point =
        let arch = decode (to_orig point) in
        (arch, Cost.test_time problem arch)
      in
      (* Branch and bound ended without a point. A seeded search was cut
         off just above the seed's time, so it found nothing at or below
         the seed: the verified seed is the answer, not claimed
         optimal. *)
      let no_point ~optimal stats =
        match seed with
        | Some { Heuristics.architecture; test_time }
          when Result.is_ok
                 (Verify.check problem architecture ~claimed_time:test_time)
          ->
            Obs.incr "ilp.seed_fallback";
            finish ~optimal:false ~seed_fallback:true stats
              (Some (architecture, test_time))
        | _ -> finish ~optimal stats None
      in
      (match outcome with
      | Branch_bound.Optimal { point; objective; stats } ->
          let arch, test_time = answer point in
          (* The decoded architecture's true cost must match the MILP
             objective (up to rounding); the reduced objective carries
             the eliminated variables' contribution as a constant, so no
             translation is needed. *)
          assert (Float.abs (float_of_int test_time -. objective) < 0.5);
          finish stats (Some (arch, test_time))
      | Branch_bound.Infeasible stats -> no_point ~optimal:true stats
      | Branch_bound.Unbounded _ ->
          (* T is bounded above by the horizon. *)
          assert false
      | Branch_bound.Node_limit { best = Some (point, _); stats } ->
          finish ~optimal:false stats (Some (answer point))
      | Branch_bound.Node_limit { best = None; stats } ->
          no_point ~optimal:false stats)

let solve ?formulation ?symmetry_breaking ?(seed_incumbent = true)
    ?time_limit_s ?deadline_s ?(presolve = true) ?(cuts = true) problem =
 Obs.span "ilp.solve" @@ fun () ->
  let start = Clock.now_s () in
  let model, x, delta, _ =
    Obs.span "ilp.build" (fun () ->
        build ?formulation ?symmetry_breaking ~cuts problem)
  in
  (* Width-selection variables steer the whole load structure: branch on
     them before the assignment variables. *)
  let num_x = Problem.num_cores problem * Problem.num_buses problem in
  search problem model ~start ?time_limit_s ?deadline_s ~presolve ~cuts
    ~seed:seed_incumbent
    ~branch_priority:(fun v -> if v >= num_x then 1 else 0)
    (fun point -> decode x ~widths:(selected_widths delta point) point)

let solve_assignment ?time_limit_s ?deadline_s ?(presolve = true)
    ?(cuts = true) problem ~widths =
 Obs.span "ilp.solve_assignment" @@ fun () ->
  let start = Clock.now_s () in
  let model, x = build_assignment ~cuts problem ~widths in
  search problem model ~start ?time_limit_s ?deadline_s ~presolve ~cuts
    ~seed:false (decode x ~widths)
