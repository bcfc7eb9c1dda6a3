module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock

type stats = {
  nodes : int;
  lp_pivots : int;
  max_depth : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  dropped_nodes : int;
  cancelled_nodes : int;
  elapsed_s : float;
}

type result =
  | Optimal of { point : float array; objective : float; stats : stats }
  | Infeasible of stats
  | Unbounded of stats
  | Node_limit of { best : (float array * float) option; stats : stats }

type node = {
  overrides : (int * float * float) list;
  depth : int;
  bound : float;  (** LP bound in minimization space. *)
  parent : Simplex.Incremental.basis option;
      (** Optimal basis of the parent node's relaxation; the LP warm
          starts from it with the dual simplex. [None] at the root. *)
}

(* Array-backed binary min-heap on the node bound (best-first search). *)
module Heap = struct
  type t = { mutable data : node array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let is_empty h = h.len = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h node =
    if h.len >= Array.length h.data then begin
      let cap = max 64 (2 * Array.length h.data) in
      let fresh = Array.make cap node in
      Array.blit h.data 0 fresh 0 h.len;
      h.data <- fresh
    end;
    h.data.(h.len) <- node;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.data.((!i - 1) / 2).bound > h.data.(!i).bound do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let length h = h.len

  let pop h =
    assert (h.len > 0);
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && h.data.(l).bound < h.data.(!smallest).bound then
          smallest := l;
        if r < h.len && h.data.(r).bound < h.data.(!smallest).bound then
          smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done
    end;
    top
end

(* Most fractional integer variable within the highest fractional
   priority class, or None if the point is integral. The key
   (priority, fractionality) is compared lexicographically, the int
   first: no key tuple, boxed float or polymorphic compare per
   variable. *)
let most_fractional ~int_tol ~priority int_vars (point : float array) =
  let best = ref (-1) in
  let best_pri = ref min_int in
  let best_frac = ref int_tol in
  for k = 0 to Array.length int_vars - 1 do
    let v = int_vars.(k) in
    let x = point.(v) in
    let frac = Float.abs (x -. Float.round x) in
    if frac > int_tol then begin
      let pri = priority v in
      if pri > !best_pri || (pri = !best_pri && frac > !best_frac) then begin
        best := v;
        best_pri := pri;
        best_frac := frac
      end
    end
  done;
  if !best < 0 then None else Some !best

let solve ?(node_limit = 500_000) ?time_limit_s ?max_lp_pivots
    ?(integral_objective = false) ?incumbent ?shared ?on_incumbent
    ?should_stop ?(branch_priority = fun _ -> 0) ?(int_tol = 1e-6) model =
  (* Monotonic clock: the time limit and elapsed stats must be immune
     to wall-clock (NTP) steps. *)
  let start = Clock.now_s () in
  let solve_sp = Obs.start () in
  let direction, _ = Model.objective model in
  let to_min obj =
    match direction with Model.Minimize -> obj | Model.Maximize -> -.obj
  in
  let from_min s =
    match direction with Model.Minimize -> s | Model.Maximize -> -.s
  in
  let int_vars = Model.integer_vars model in
  let int_var_arr = Array.of_list int_vars in
  (* One incremental LP handle for the whole tree: the scaled tableau is
     built once, and every node solve reuses it with its own bound
     overrides, warm-starting from the parent basis where possible. *)
  let lp = Simplex.Incremental.create ?max_pivots:max_lp_pivots model in
  let heap = Heap.create () in
  let nodes = ref 0 in
  let pivots = ref 0 in
  let dropped = ref 0 in
  let cancelled = ref 0 in
  let max_depth = ref 0 in
  let best_point = ref None in
  let best_score =
    ref (match incumbent with Some v -> to_min v | None -> infinity)
  in
  let saw_unbounded = ref false in
  let prune_bound score =
    (* Tighten an LP bound before comparing with the incumbent. The slack
       must scale with the bound's magnitude: simplex tolerances are
       relative, and objectives here can reach 1e7, where a fixed 1e-6
       slack would let rounding noise push the ceiling one integer too
       high and prune the true optimum. *)
    if integral_objective then
      Float.round (Float.ceil (score -. 1e-6 -. (1e-7 *. Float.abs score)))
    else score
  in
  let mk_stats () =
    { nodes = !nodes;
      lp_pivots = !pivots;
      max_depth = !max_depth;
      warm_starts = Simplex.Incremental.warm_starts lp;
      cold_solves = Simplex.Incremental.cold_solves lp;
      refactorizations = Simplex.Incremental.refactorizations lp;
      dropped_nodes = !dropped;
      cancelled_nodes = !cancelled;
      elapsed_s = Clock.elapsed_s ~since:start }
  in
  Heap.push heap { overrides = []; depth = 0; bound = neg_infinity; parent = None };
  let budget_hit = ref false in
  let stop_requested () =
    match should_stop with Some f -> f () | None -> false
  in
  (match should_stop with
  | Some f -> Simplex.Incremental.set_should_stop lp f
  | None -> ());
  while (not (Heap.is_empty heap)) && not !budget_hit do
    if stop_requested () then begin
      (* Cooperative cancellation: every node still on the heap is
         abandoned unexplored. Surfaced as a budget hit so the verdict
         honestly degrades to best-found, never claimed optimal. *)
      budget_hit := true;
      cancelled := Heap.length heap;
      Obs.incr ~n:!cancelled "bb.cancelled_nodes"
    end
    else begin
    (* Re-read the shared incumbent at node entry: a racing engine may
       have published a better objective since the last node, and
       pruning against it is sound (the cell only ever holds feasible
       objectives). A strictly tighter shared score supersedes the
       local point — the cell's owner holds the better solution. *)
    (match shared with
    | Some read -> (
        match read () with
        | Some v ->
            let s = to_min v in
            if s < !best_score then begin
              Obs.incr "bb.shared_tighten";
              best_score := s;
              best_point := None
            end
        | None -> ())
    | None -> ());
    let node = Heap.pop heap in
    if prune_bound node.bound >= !best_score -. 1e-9 then
      Obs.incr "bb.prune.bound"
    else begin
      incr nodes;
      let out_of_time =
        match time_limit_s with
        | Some budget -> Clock.elapsed_s ~since:start > budget
        | None -> false
      in
      if !nodes > node_limit || out_of_time then budget_hit := true
      else begin
        if node.depth > !max_depth then max_depth := node.depth;
        let node_sp = Obs.start () in
        let warm_before =
          if Obs.enabled () then Simplex.Incremental.warm_starts lp else 0
        in
        let outcome = ref "" in
        (match
           Simplex.Incremental.solve ?basis:node.parent
             ~bound_overrides:node.overrides lp
         with
        | Simplex.Infeasible ->
            outcome := "infeasible";
            Obs.incr "bb.prune.infeasible"
        | Simplex.Iteration_limit ->
            (* Unexplorable subtree: the optimum may hide in it, so the
               final verdict is downgraded to best-found (Node_limit)
               rather than claiming proven optimality. *)
            outcome := "dropped";
            Obs.incr "bb.dropped";
            incr dropped
        | Simplex.Unbounded ->
            outcome := "unbounded";
            if node.depth = 0 && int_vars = [] then saw_unbounded := true
            else if node.depth = 0 then
              (* Relaxation unbounded with integer variables present:
                 report unbounded conservatively. *)
              saw_unbounded := true
        | Simplex.Optimal { point; objective; pivots = p } -> (
            pivots := !pivots + p;
            let score = to_min objective in
            if prune_bound score >= !best_score -. 1e-9 then begin
              outcome := "pruned";
              Obs.incr "bb.prune.objective"
            end
            else
              match
                most_fractional ~int_tol ~priority:branch_priority
                  int_var_arr point
              with
              | None ->
                  (* Integral: new incumbent. Snap integer variables to
                     exact integers before storing. *)
                  outcome := "integral";
                  let snapped = Array.copy point in
                  List.iter
                    (fun v -> snapped.(v) <- Float.round snapped.(v))
                    int_vars;
                  if score < !best_score then begin
                    Obs.incr "bb.incumbent";
                    best_score := score;
                    best_point := Some snapped;
                    match on_incumbent with
                    | Some f -> f snapped (from_min score)
                    | None -> ()
                  end
              | Some v ->
                  outcome := "branched";
                  let x = point.(v) in
                  let info = Model.var_info model v in
                  let lo_ub = Float.floor x and hi_lb = Float.ceil x in
                  (* Both children restart from this node's optimal
                     basis; one snapshot is shared between them. *)
                  let parent = Some (Simplex.Incremental.basis lp) in
                  let child overrides =
                    { overrides; depth = node.depth + 1; bound = score; parent }
                  in
                  if lo_ub >= info.Model.lb -. 1e-9 then
                    Heap.push heap
                      (child ((v, info.Model.lb, lo_ub) :: node.overrides));
                  if hi_lb <= info.Model.ub +. 1e-9 then
                    Heap.push heap
                      (child ((v, hi_lb, info.Model.ub) :: node.overrides))));
        if Obs.enabled () then
          Obs.finish
            ~args:
              [ ("depth", string_of_int node.depth);
                ( "lp",
                  if Simplex.Incremental.warm_starts lp > warm_before then
                    "warm"
                  else "cold" );
                ("outcome", !outcome) ]
            "bb.node" node_sp
      end
    end
    end
  done;
  let stats = mk_stats () in
  if Obs.enabled () then
    Obs.finish
      ~args:
        [ ("nodes", string_of_int stats.nodes);
          ("lp_pivots", string_of_int stats.lp_pivots);
          ("warm_starts", string_of_int stats.warm_starts);
          ("cold_solves", string_of_int stats.cold_solves) ]
      "bb.solve" solve_sp;
  if !budget_hit || !dropped > 0 then
    Node_limit
      { best =
          (match !best_point with
          | Some p -> Some (p, from_min !best_score)
          | None -> None);
        stats }
  else if !saw_unbounded then Unbounded stats
  else
    match !best_point with
    | Some point ->
        Optimal { point; objective = from_min !best_score; stats }
    | None -> Infeasible stats
