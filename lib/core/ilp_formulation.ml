module Model = Soctam_ilp.Model
module Lin_expr = Soctam_ilp.Lin_expr
module Branch_bound = Soctam_ilp.Branch_bound
module Simplex = Soctam_ilp.Simplex
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

(* Exclusion structure as per-bus rows. Without cuts: one pairwise row
   [x_aj + x_bj <= 1] per exclusion pair and bus. With cuts: a greedy
   clique cover of the conflict graph — each clique [C] contributes
   [sum_{i in C} x_ij <= 1], which dominates all its pairwise rows, so
   the pairwise rows inside larger cliques disappear entirely. Cliques
   of size 2 keep the pairwise [excl_*] naming. *)
let add_exclusion_rows model x ~n ~nb ~cuts exclusion_pairs =
  if cuts then
    List.iteri
      (fun idx clique ->
        for j = 0 to nb - 1 do
          let name =
            match clique with
            | [ a; b ] -> Printf.sprintf "excl_%d_%d_%d" a b j
            | _ -> Printf.sprintf "clique_%d_%d" idx j
          in
          Model.add_constr model ~name
            (Lin_expr.of_terms (List.map (fun i -> (x.(i).(j), 1.0)) clique))
            Model.Le 1.0
        done)
      (Cuts.edge_cover_cliques ~n exclusion_pairs)
  else
    List.iter
      (fun (a, b) ->
        for j = 0 to nb - 1 do
          Model.add_constr model
            ~name:(Printf.sprintf "excl_%d_%d_%d" a b j)
            (Lin_expr.of_terms [ (x.(a).(j), 1.0); (x.(b).(j), 1.0) ])
            Model.Le 1.0
        done)
      exclusion_pairs

(* Rows of size >= 3 that a clique [cover] installs over [nb] buses:
   the build-time contribution to the [cuts_added] stat. *)
let cover_rows ~nb cover =
  List.fold_left
    (fun acc c -> match c with _ :: _ :: _ :: _ -> acc + nb | _ -> acc)
    0 cover

let build ?(formulation = Big_m) ?(symmetry_breaking = true) ?(cuts = false)
    problem =
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  let kmax = w - nb + 1 in
  let model = Model.create () in
  let x =
    Array.init n (fun i ->
        Array.init nb (fun j ->
            Model.add_binary model ~name:(Printf.sprintf "x_%d_%d" i j)))
  in
  let delta =
    Array.init nb (fun j ->
        Array.init kmax (fun k ->
            Model.add_binary model
              ~name:(Printf.sprintf "d_%d_%d" j (k + 1))))
  in
  let horizon =
    (* Safe upper bound on T: all cores serialized on a width-1 bus. *)
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + Problem.time problem ~core:i ~width:1
    done;
    float_of_int !acc
  in
  let lower_bound = float_of_int (Problem.lower_bound problem) in
  let t_var =
    Model.add_continuous model ~name:"T" ~lb:lower_bound ~ub:horizon
  in
  (* Each core rides exactly one bus. *)
  for i = 0 to n - 1 do
    let row =
      Lin_expr.of_terms (List.init nb (fun j -> (x.(i).(j), 1.0)))
    in
    Model.add_constr model ~name:(Printf.sprintf "assign_%d" i) row
      Model.Eq 1.0
  done;
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
  (* Structural constraints. *)
  let constraints = Problem.constraints problem in
  add_exclusion_rows model x ~n ~nb ~cuts constraints.Problem.exclusion_pairs;
  List.iter
    (fun (a, b) ->
      for j = 0 to nb - 1 do
        Model.add_constr model
          ~name:(Printf.sprintf "co_%d_%d_%d" a b j)
          (Lin_expr.of_terms [ (x.(a).(j), 1.0); (x.(b).(j), -1.0) ])
          Model.Eq 0.0
      done)
    constraints.Problem.co_pairs;
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

let decode problem x delta point =
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let kmax = Array.length delta.(0) in
  let widths =
    Array.init nb (fun j ->
        let chosen = ref 0 in
        for k = 0 to kmax - 1 do
          if point.(delta.(j).(k)) > 0.5 then chosen := k + 1
        done;
        !chosen)
  in
  let assignment =
    Array.init n (fun i ->
        let bus = ref 0 in
        for j = 0 to nb - 1 do
          if point.(x.(i).(j)) > 0.5 then bus := j
        done;
        !bus)
  in
  Architecture.make ~widths ~assignment

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
   its branch-and-bound work, and the root pipeline adds its clique
   rows [cuts], eliminated variables [fixed] and separation pivots. *)
let mk_stats model ~start ?seeded_bound ?(cuts = 0) ?(fixed = 0)
    ?(sep_pivots = 0) (stats : Branch_bound.stats) =
  { variables = Model.num_vars model;
    constraints = Model.num_constrs model;
    bb_nodes = stats.Branch_bound.nodes;
    lp_pivots = stats.Branch_bound.lp_pivots + sep_pivots;
    max_depth = stats.Branch_bound.max_depth;
    warm_starts = stats.Branch_bound.warm_starts;
    cold_solves = stats.Branch_bound.cold_solves;
    refactorizations = stats.Branch_bound.refactorizations;
    dropped_nodes = stats.Branch_bound.dropped_nodes;
    propagated_nodes = stats.Branch_bound.propagated_nodes;
    seeded_bound;
    seed_fallback = false;
    cuts_added = cuts;
    presolve_fixed = fixed;
    elapsed_s = Clock.elapsed_s ~since:start }

(* The statistics of a solve the presolve proved infeasible before any
   search: the build's cover rows, and no other work. *)
let presolve_infeasible_stats model ~start ~cuts ~n ~nb excl =
  let cover = if cuts then Cuts.edge_cover_cliques ~n excl else [] in
  mk_stats model ~start ~cuts:(cover_rows ~nb cover) zero_bb_stats

(* Root pipeline: the presolve reduction plus bounded-round clique-cut
   separation that runs between [build] and branch and bound. *)
type root_pipeline = {
  search_model : Model.t;  (** The model branch and bound explores. *)
  to_orig : float array -> float array;  (** Postsolve of search points. *)
  remap : (int -> int) -> int -> int;
      (** Lift an original-space branch priority to the search space. *)
  root_cuts : int;  (** Clique rows: cover (size >= 3) + separated. *)
  fixed : int;  (** Variables eliminated by the presolve. *)
  sep_pivots : int;  (** LP pivots spent in separation rounds. *)
}

let separation_rounds = 3
let cut_violation_tol = 1e-6

(* Presolve [model], then separate pool cliques against the root
   relaxation of the reduced model for at most [separation_rounds]
   rounds. [Error msg] means the presolve itself proved the model
   infeasible. Cut candidates are built in the original variable space
   ([x]) and translated through the reduction, so the two layers
   compose without either knowing about the other. *)
let strengthen_root ~presolve ~cuts ~n ~nb ~x ~excl model =
  let cover = if cuts then Cuts.edge_cover_cliques ~n excl else [] in
  let pre =
    if presolve then
      match Obs.span "ilp.presolve" (fun () -> Presolve.reduce model) with
      | Ok p -> Ok (Some p)
      | Error msg -> Error msg
    else Ok None
  in
  match pre with
  | Error msg -> Error msg
  | Ok maybe_pre ->
      let search_model =
        match maybe_pre with None -> model | Some p -> p.Presolve.reduced
      in
      let to_orig =
        match maybe_pre with None -> Fun.id | Some p -> Presolve.postsolve p
      in
      let remap prio =
        match maybe_pre with
        | None -> prio
        | Some p -> fun v -> prio p.Presolve.orig_of_reduced.(v)
      in
      let fixed =
        match maybe_pre with None -> 0 | Some p -> Presolve.eliminated p
      in
      let translate terms =
        match maybe_pre with
        | None -> (terms, 0.0)
        | Some p -> Presolve.translate_terms p terms
      in
      let sep_cuts = ref 0 and sep_pivots = ref 0 in
      if cuts then begin
        let pool = Cuts.pool_cliques ~n ~cover excl in
        let candidates = ref [] in
        List.iteri
          (fun idx clique ->
            for j = nb - 1 downto 0 do
              let terms, const =
                translate (List.map (fun i -> (x.(i).(j), 1.0)) clique)
              in
              if terms <> [] then
                candidates :=
                  (Printf.sprintf "clique_sep_%d_%d" idx j, terms, const)
                  :: !candidates
            done)
          pool;
        let remaining = ref (List.rev !candidates) in
        let rounds = ref 0 in
        let continue = ref (!remaining <> []) in
        while !continue && !rounds < separation_rounds do
          incr rounds;
          match Obs.span "ilp.separate" (fun () -> Simplex.solve search_model)
          with
          | Simplex.Optimal { point; pivots; _ } ->
              sep_pivots := !sep_pivots + pivots;
              let violated, rest =
                List.partition
                  (fun (_, terms, const) ->
                    List.fold_left
                      (fun acc (v, c) -> acc +. (c *. point.(v)))
                      const terms
                    > 1.0 +. cut_violation_tol)
                  !remaining
              in
              if violated = [] then continue := false
              else begin
                List.iter
                  (fun (name, terms, const) ->
                    Model.add_constr search_model ~name
                      (Lin_expr.of_terms terms)
                      Model.Le (1.0 -. const);
                    incr sep_cuts)
                  violated;
                remaining := rest;
                if !remaining = [] then continue := false
              end
          | _ -> continue := false
        done
      end;
      Ok
        { search_model;
          to_orig;
          remap;
          root_cuts = cover_rows ~nb cover + !sep_cuts;
          fixed;
          sep_pivots = !sep_pivots }

let solve ?formulation ?symmetry_breaking ?(seed_incumbent = true)
    ?time_limit_s ?deadline_s ?(presolve = true) ?(cuts = true) problem =
 Obs.span "ilp.solve" @@ fun () ->
  let start = Clock.now_s () in
  let time_limit_s = effective_time_limit ?time_limit_s ?deadline_s ~start () in
  let model, x, delta, _ =
    Obs.span "ilp.build" (fun () ->
        build ?formulation ?symmetry_breaking ~cuts problem)
  in
  (* Width-selection variables steer the whole load structure: branch on
     them before the assignment variables. *)
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let num_x = n * nb in
  let branch_priority v = if v >= num_x then 1 else 0 in
  let excl = (Problem.constraints problem).Problem.exclusion_pairs in
  match strengthen_root ~presolve ~cuts ~n ~nb ~x ~excl model with
  | Error _msg ->
      (* The presolve proved the instance infeasible before any search:
         the verdict is exact, with zero branch-and-bound work. *)
      Obs.incr "ilp.presolve_infeasible";
      { solution = None;
        optimal = true;
        stats = presolve_infeasible_stats model ~start ~cuts ~n ~nb excl }
  | Ok rp ->
      (* With the budget already exhausted (expired deadline) the answer
         is an immediate partial verdict; don't burn time computing a
         seed incumbent that cannot be used. *)
      let expired =
        match time_limit_s with Some l -> l <= 0.0 | None -> false
      in
      let seed =
        if seed_incumbent && not expired then
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
        Branch_bound.solve ?time_limit_s ~integral_objective:true
          ?incumbent ~branch_priority:(rp.remap branch_priority)
          rp.search_model
      in
      let finish ?(optimal = true) stats solution =
        { solution;
          optimal;
          stats =
            mk_stats model ~start ?seeded_bound ~cuts:rp.root_cuts
              ~fixed:rp.fixed ~sep_pivots:rp.sep_pivots stats }
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
            let r =
              finish ~optimal:false stats (Some (architecture, test_time))
            in
            { r with stats = { r.stats with seed_fallback = true } }
        | _ -> finish ~optimal stats None
      in
      (match outcome with
      | Branch_bound.Optimal { point; objective; stats } ->
          let arch = decode problem x delta (rp.to_orig point) in
          let test_time = Cost.test_time problem arch in
          (* The decoded architecture's true cost must match the MILP
             objective (up to rounding); the reduced objective carries
             the eliminated variables' contribution as a constant, so no
             translation is needed. *)
          assert (Float.abs (float_of_int test_time -. objective) < 0.5);
          finish stats (Some (arch, test_time))
      | Branch_bound.Infeasible stats -> no_point ~optimal:true stats
      | Branch_bound.Unbounded stats ->
          (* A bounded makespan objective cannot be unbounded. *)
          ignore stats;
          assert false
      | Branch_bound.Node_limit { best; stats } -> (
          match best with
          | Some (point, _) ->
              let arch = decode problem x delta (rp.to_orig point) in
              let test_time = Cost.test_time problem arch in
              finish ~optimal:false stats (Some (arch, test_time))
          | None -> no_point ~optimal:false stats))

(* Assignment-only formulation (P1): widths fixed, so each bus's load row
   is exact — no width indicators, no big-M. *)
let build_assignment ?(cuts = false) problem ~widths =
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
  let x =
    Array.init n (fun i ->
        Array.init nb (fun j ->
            Model.add_binary model ~name:(Printf.sprintf "x_%d_%d" i j)))
  in
  let horizon = ref 0 in
  for i = 0 to n - 1 do
    horizon := !horizon + Problem.time problem ~core:i ~width:1
  done;
  let t_var =
    Model.add_continuous model ~name:"T" ~lb:0.0
      ~ub:(float_of_int !horizon)
  in
  for i = 0 to n - 1 do
    Model.add_constr model
      ~name:(Printf.sprintf "assign_%d" i)
      (Lin_expr.of_terms (List.init nb (fun j -> (x.(i).(j), 1.0))))
      Model.Eq 1.0
  done;
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
  let constraints = Problem.constraints problem in
  add_exclusion_rows model x ~n ~nb ~cuts constraints.Problem.exclusion_pairs;
  List.iter
    (fun (a, b) ->
      for j = 0 to nb - 1 do
        Model.add_constr model
          ~name:(Printf.sprintf "co_%d_%d_%d" a b j)
          (Lin_expr.of_terms [ (x.(a).(j), 1.0); (x.(b).(j), -1.0) ])
          Model.Eq 0.0
      done)
    constraints.Problem.co_pairs;
  Model.set_objective model Model.Minimize (Lin_expr.var t_var);
  (model, x)

let solve_assignment ?time_limit_s ?deadline_s ?(presolve = true)
    ?(cuts = true) problem ~widths =
 Obs.span "ilp.solve_assignment" @@ fun () ->
  let start = Clock.now_s () in
  let time_limit_s = effective_time_limit ?time_limit_s ?deadline_s ~start () in
  let model, x = build_assignment ~cuts problem ~widths in
  let n = Problem.num_cores problem in
  let nb = Problem.num_buses problem in
  let excl = (Problem.constraints problem).Problem.exclusion_pairs in
  let decode point =
    let assignment =
      Array.init n (fun i ->
          let bus = ref 0 in
          for j = 0 to nb - 1 do
            if point.(x.(i).(j)) > 0.5 then bus := j
          done;
          !bus)
    in
    Architecture.make ~widths ~assignment
  in
  match strengthen_root ~presolve ~cuts ~n ~nb ~x ~excl model with
  | Error _msg ->
      Obs.incr "ilp.presolve_infeasible";
      { solution = None;
        optimal = true;
        stats = presolve_infeasible_stats model ~start ~cuts ~n ~nb excl }
  | Ok rp -> (
      let outcome =
        Branch_bound.solve ?time_limit_s ~integral_objective:true
          rp.search_model
      in
      let finish ?(optimal = true) stats solution =
        { solution;
          optimal;
          stats =
            mk_stats model ~start ~cuts:rp.root_cuts ~fixed:rp.fixed
              ~sep_pivots:rp.sep_pivots stats }
      in
      match outcome with
      | Branch_bound.Optimal { point; objective; stats } ->
          let arch = decode (rp.to_orig point) in
          let test_time = Cost.test_time problem arch in
          assert (Float.abs (float_of_int test_time -. objective) < 0.5);
          finish stats (Some (arch, test_time))
      | Branch_bound.Infeasible stats -> finish stats None
      | Branch_bound.Unbounded _ ->
          (* T is bounded above by the horizon. *)
          assert false
      | Branch_bound.Node_limit { best; stats } -> (
          match best with
          | Some (point, _) ->
              let arch = decode (rp.to_orig point) in
              finish ~optimal:false stats
                (Some (arch, Cost.test_time problem arch))
          | None -> finish ~optimal:false stats None))
