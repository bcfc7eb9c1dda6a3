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
  propagated_nodes : int;
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

(* Integrality tolerance: a value this close to an integer is
   integral. *)
let int_tol = 1e-6

(* Most fractional integer variable within the highest fractional
   priority class, or None if the point is integral. The key
   (priority, fractionality) is compared lexicographically, the int
   first: no key tuple, boxed float or polymorphic compare per
   variable. *)
let most_fractional ~priority int_vars (point : float array) =
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

(* Node domain propagation. Before a non-root node's LP, the box given
   by the model bounds and the node's overrides is tightened from the
   activity bounds of every row, plus a cutoff row for the objective;
   when a domain empties, no point of the node satisfies every row and
   the node is closed without its LP. A node left open gets its LP over
   the tightened integer bounds ([tightened]): the cutoff row removes
   only points that cannot beat the incumbent, so the LP bound stays
   valid for every point that could. Float error may only weaken a
   proof: each implied bound carries slack sized by the row's
   tolerance, and a row is violated only beyond that tolerance. *)
module Propagate = struct
  type t = {
    nrows : int;  (** Model rows, then the objective-cutoff row. *)
    row_start : int array;  (** CSR row pointers, length [nrows + 1]. *)
    row_col : int array;
    row_coef : float array;
    rhs : float array;  (** The cutoff row's entry is set per node. *)
    sense : Model.sense array;
    col_start : int array;  (** Rows of each variable, CSC-style. *)
    col_row : int array;
    integer : bool array;
    lb0 : float array;
    ub0 : float array;
    obj_const : float;  (** Objective constant, minimization space. *)
    lb : float array;  (** Scratch box of the node being propagated. *)
    ub : float array;
    queue : int array;  (** Ring buffer; a row is queued at most once. *)
    queued : Bytes.t;
    mutable head : int;
    mutable len : int;
  }

  (* Row visits allowed per node, as a multiple of the row count. *)
  let visits_per_row = 8

  let create model =
    let nvars = Model.num_vars model in
    let constrs = Model.constrs model in
    let m = Array.length constrs in
    let nrows = m + 1 in
    let direction, obj = Model.objective model in
    let sign =
      match direction with Model.Minimize -> 1.0 | Model.Maximize -> -1.0
    in
    let row_start = Array.make (nrows + 1) 0 in
    Array.iteri
      (fun r (c : Model.constr) ->
        row_start.(r + 1) <- row_start.(r) + Lin_expr.size c.expr)
      constrs;
    row_start.(nrows) <- row_start.(m) + Lin_expr.size obj;
    let nnz = row_start.(nrows) in
    let row_col = Array.make nnz 0 and row_coef = Array.make nnz 0.0 in
    let fill r sign expr =
      let k = ref row_start.(r) in
      Lin_expr.iter_terms
        (fun v a ->
          row_col.(!k) <- v;
          row_coef.(!k) <- sign *. a;
          incr k)
        expr
    in
    Array.iteri (fun r (c : Model.constr) -> fill r 1.0 c.expr) constrs;
    fill m sign obj;
    let sense =
      Array.init nrows (fun r ->
          if r = m then Model.Le else constrs.(r).Model.sense)
    in
    let rhs =
      Array.init nrows (fun r ->
          if r = m then infinity else constrs.(r).Model.rhs)
    in
    let col_start = Array.make (nvars + 1) 0 in
    Array.iter (fun v -> col_start.(v + 1) <- col_start.(v + 1) + 1) row_col;
    for v = 0 to nvars - 1 do
      col_start.(v + 1) <- col_start.(v + 1) + col_start.(v)
    done;
    let col_row = Array.make nnz 0 in
    let next = Array.sub col_start 0 nvars in
    for r = 0 to nrows - 1 do
      for k = row_start.(r) to row_start.(r + 1) - 1 do
        let v = row_col.(k) in
        col_row.(next.(v)) <- r;
        next.(v) <- next.(v) + 1
      done
    done;
    let info = Array.init nvars (Model.var_info model) in
    { nrows;
      row_start;
      row_col;
      row_coef;
      rhs;
      sense;
      col_start;
      col_row;
      integer = Array.map (fun i -> i.Model.kind <> Model.Continuous) info;
      lb0 = Array.map (fun i -> i.Model.lb) info;
      ub0 = Array.map (fun i -> i.Model.ub) info;
      obj_const = sign *. Lin_expr.constant obj;
      lb = Array.make nvars 0.0;
      ub = Array.make nvars 0.0;
      queue = Array.make nrows 0;
      queued = Bytes.make nrows '\000';
      head = 0;
      len = 0 }

  (* The cutoff row reads [objective <= cutoff]; [infinity] disables it. *)
  let[@inline] set_cutoff p cutoff =
    p.rhs.(p.nrows - 1) <- cutoff -. p.obj_const

  let push p r =
    if Bytes.get p.queued r = '\000' then begin
      Bytes.set p.queued r '\001';
      p.queue.((p.head + p.len) mod p.nrows) <- r;
      p.len <- p.len + 1
    end

  let pop p =
    let r = p.queue.(p.head) in
    p.head <- (p.head + 1) mod p.nrows;
    p.len <- p.len - 1;
    Bytes.set p.queued r '\000';
    r

  let push_rows_of p v =
    for k = p.col_start.(v) to p.col_start.(v + 1) - 1 do
      push p p.col_row.(k)
    done

  (* Intersect the box with an override and queue the rows of its
     variable; [true] when the box empties. *)
  let install p (v, l, u) =
    if l > p.lb.(v) then p.lb.(v) <- l;
    if u < p.ub.(v) then p.ub.(v) <- u;
    push_rows_of p v;
    p.lb.(v) > p.ub.(v)

  let rec install_all p = function
    | [] -> false
    | bound :: rest -> install p bound || install_all p rest

  (* [closes p ~from_parent overrides] propagates the node with
     [overrides] over the model rows and the cutoff row (see
     [set_cutoff]). [true] means a domain emptied. Normally the box
     restarts from the model bounds and every override is installed.
     [~from_parent:true] is for a child propagated right after its
     parent, whose box the last call left in [p]: only the child's own
     branching bound, the head of [overrides], is installed on top of
     it. At most [visits_per_row * nrows] row visits; no allocation. *)
  let closes p ~from_parent overrides =
    let cutoff_row = p.nrows - 1 in
    if not from_parent then begin
      let nvars = Array.length p.lb in
      Array.blit p.lb0 0 p.lb 0 nvars;
      Array.blit p.ub0 0 p.ub 0 nvars
    end;
    if p.rhs.(cutoff_row) < infinity then push p cutoff_row;
    let closed =
      ref
        (match overrides with
        | branch :: _ when from_parent -> install p branch
        | _ -> install_all p overrides)
    in
    let visits = ref (visits_per_row * p.nrows) in
    while (not !closed) && p.len > 0 && !visits > 0 do
      decr visits;
      let r = pop p in
      let b = p.rhs.(r) in
      let first = p.row_start.(r) and last = p.row_start.(r + 1) - 1 in
      (* Activity bounds: finite parts, infinite-term counts and the
         magnitude sums that scale the row's tolerance. *)
      let min_act = ref 0.0 and max_act = ref 0.0 in
      let min_abs = ref 0.0 and max_abs = ref 0.0 in
      let min_inf = ref 0 and max_inf = ref 0 in
      for k = first to last do
        let a = p.row_coef.(k) and v = p.row_col.(k) in
        let lo = if a > 0.0 then p.lb.(v) else p.ub.(v) in
        let hi = if a > 0.0 then p.ub.(v) else p.lb.(v) in
        if Float.abs lo < infinity then begin
          min_act := !min_act +. (a *. lo);
          min_abs := !min_abs +. Float.abs (a *. lo)
        end
        else incr min_inf;
        if Float.abs hi < infinity then begin
          max_act := !max_act +. (a *. hi);
          max_abs := !max_abs +. Float.abs (a *. hi)
        end
        else incr max_inf
      done;
      let base_tol = 1e-6 *. (1.0 +. Float.abs b) in
      let min_tol = base_tol +. (1e-9 *. !min_abs) in
      let max_tol = base_tol +. (1e-9 *. !max_abs) in
      (* The upper side (Le, Eq) tightens from the minimum activity, the
         lower side (Ge, Eq) from the maximum; a side is usable while at
         most one of its terms is infinite. *)
      let finite_rhs = Float.abs b < infinity in
      let upper, lower =
        match p.sense.(r) with
        | Model.Le -> (finite_rhs && !min_inf <= 1, false)
        | Model.Ge -> (false, finite_rhs && !max_inf <= 1)
        | Model.Eq ->
            (finite_rhs && !min_inf <= 1, finite_rhs && !max_inf <= 1)
      in
      if (upper && !min_inf = 0 && !min_act -. b > min_tol)
         || (lower && !max_inf = 0 && b -. !max_act > max_tol)
      then closed := true;
      let k = ref first in
      while (upper || lower) && (not !closed) && !k <= last do
        let a = p.row_coef.(!k) and v = p.row_col.(!k) in
        incr k;
        (* The bounds the activities saw: this visit changes a
           variable's bounds only when it reaches its own term. *)
        let l = p.lb.(v) and u = p.ub.(v) in
        let new_lb = ref neg_infinity and new_ub = ref infinity in
        if upper then begin
          let lo = if a > 0.0 then l else u in
          let finite = Float.abs lo < infinity in
          if finite = (!min_inf = 0) then begin
            let rest = if finite then !min_act -. (a *. lo) else !min_act in
            let cap = (b -. rest) /. a in
            let slack =
              (1e-9 *. (1.0 +. Float.abs cap)) +. (min_tol /. Float.abs a)
            in
            if a > 0.0 then new_ub := cap +. slack else new_lb := cap -. slack
          end
        end;
        if lower then begin
          let hi = if a > 0.0 then u else l in
          let finite = Float.abs hi < infinity in
          if finite = (!max_inf = 0) then begin
            let rest = if finite then !max_act -. (a *. hi) else !max_act in
            let cap = (b -. rest) /. a in
            let slack =
              (1e-9 *. (1.0 +. Float.abs cap)) +. (max_tol /. Float.abs a)
            in
            if a > 0.0 then begin
              if cap -. slack > !new_lb then new_lb := cap -. slack
            end
            else if cap +. slack < !new_ub then new_ub := cap +. slack
          end
        end;
        if p.integer.(v) then begin
          new_ub := Float.floor (!new_ub +. 1e-6);
          new_lb := Float.ceil (!new_lb -. 1e-6)
        end;
        (* Accept only a tightening beyond float noise. *)
        let changed = ref false in
        if u -. !new_ub > 1e-6 *. (1.0 +. Float.abs !new_ub) then begin
          p.ub.(v) <- !new_ub;
          changed := true
        end;
        if !new_lb -. l > 1e-6 *. (1.0 +. Float.abs !new_lb) then begin
          p.lb.(v) <- !new_lb;
          changed := true
        end;
        if !changed then
          if p.lb.(v) > p.ub.(v) then closed := true else push_rows_of p v
      done
    done;
    (* Clear the queue for the next node. *)
    while p.len > 0 do
      ignore (pop p)
    done;
    !closed

  (* The integer variables whose box [closes] left tighter than the
     model's, as overrides consed onto [acc]. Continuous bounds stay
     out: theirs carry the propagation's slack. *)
  let tightened p int_vars acc =
    let acc = ref acc in
    for k = Array.length int_vars - 1 downto 0 do
      let v = int_vars.(k) in
      let l = p.lb.(v) and u = p.ub.(v) in
      if l > p.lb0.(v) || u < p.ub0.(v) then acc := (v, l, u) :: !acc
    done;
    !acc
end

let solve ?(node_limit = 500_000) ?time_limit_s ?max_lp_pivots
    ?(integral_objective = false) ?incumbent ?(branch_priority = fun _ -> 0)
    model =
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
  let propagated = ref 0 in
  let max_depth = ref 0 in
  let best_point = ref None in
  let best_score =
    ref (match incumbent with Some v -> to_min v | None -> infinity)
  in
  let saw_unbounded = ref false in
  (* Built at the first non-root node: a search settled at the root
     never pays for the row copy. *)
  let prop = lazy (Propagate.create model) in
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
      propagated_nodes = !propagated;
      elapsed_s = Clock.elapsed_s ~since:start }
  in
  Heap.push heap { overrides = []; depth = 0; bound = neg_infinity; parent = None };
  (* The child a branching node plunges into: it is processed next,
     ahead of the heap, and best-first order resumes when a plunge ends
     at a node that does not branch. *)
  let plunge = ref None in
  let budget_hit = ref false in
  while
    (Option.is_some !plunge || not (Heap.is_empty heap)) && not !budget_hit
  do
    let plunged = Option.is_some !plunge in
    let node =
      match !plunge with
      | Some child ->
          plunge := None;
          child
      | None -> Heap.pop heap
    in
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
        let reuses_before =
          if Obs.enabled () then Simplex.Incremental.reuses lp else 0
        in
        let outcome = ref "" in
        let closed =
          node.depth > 0
          && begin
               let p = Lazy.force prop in
               (* The cutoff row keeps the objective strictly below the
                  incumbent: under [integral_objective], at most the
                  largest integer below it. *)
               Propagate.set_cutoff p
                 (if integral_objective then
                    Float.ceil (!best_score -. 1e-9) -. 1.0
                  else !best_score);
               (* A plunged child comes right after its parent, whose
                  box is still in [p] unless the parent was the root,
                  which is not propagated. *)
               Propagate.closes p
                 ~from_parent:(plunged && node.depth > 1)
                 node.overrides
             end
        in
        if closed then begin
          outcome := "propagated";
          Obs.incr "bb.prune.propagated";
          incr propagated
        end
        else begin
          let bound_overrides =
            if node.depth = 0 then node.overrides
            else
              Propagate.tightened (Lazy.force prop) int_var_arr
                node.overrides
          in
          match
            Simplex.Incremental.solve ?basis:node.parent ~bound_overrides lp
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
                  most_fractional ~priority:branch_priority
                    int_var_arr point
                with
                | None ->
                    (* Integral: new incumbent. Snap integer variables to
                       exact integers before storing, and an integral
                       objective to its integer value, so float noise in
                       the LP score cannot pass for an improvement. *)
                    outcome := "integral";
                    let snapped = Array.copy point in
                    List.iter
                      (fun v -> snapped.(v) <- Float.round snapped.(v))
                      int_vars;
                    let score =
                      if integral_objective then Float.round score else score
                    in
                    if score < !best_score then begin
                      Obs.incr "bb.incumbent";
                      best_score := score;
                      best_point := Some snapped
                    end
                | Some v ->
                    outcome := "branched";
                    let x = point.(v) in
                    let info = Model.var_info model v in
                    let lo_ub = Float.floor x and hi_lb = Float.ceil x in
                    (* Both children restart from this node's optimal
                       basis; one snapshot is shared between them. The
                       plunged child is solved next, while the basis is
                       still live, so its LP keeps the factorization. *)
                    let parent = Some (Simplex.Incremental.basis lp) in
                    let child overrides =
                      let depth = node.depth + 1 in
                      Some { overrides; depth; bound = score; parent }
                    in
                    let down =
                      if lo_ub >= info.Model.lb -. 1e-9 then
                        child ((v, info.Model.lb, lo_ub) :: node.overrides)
                      else None
                    in
                    let up =
                      if hi_lb <= info.Model.ub +. 1e-9 then
                        child ((v, hi_lb, info.Model.ub) :: node.overrides)
                      else None
                    in
                    (* Plunge on the side [x] rounds to; the sibling waits
                       in the heap. *)
                    let near, far =
                      if x -. lo_ub < 0.5 then (down, up) else (up, down)
                    in
                    if Option.is_some near then begin
                      plunge := near;
                      Option.iter (Heap.push heap) far
                    end
                    else plunge := far)
        end;
        if Obs.enabled () then
          Obs.finish
            ~args:
              [ ("depth", string_of_int node.depth);
                ( "lp",
                  if closed then "none"
                  else if Simplex.Incremental.warm_starts lp > warm_before then
                    if Simplex.Incremental.reuses lp > reuses_before then
                      "reused"
                    else "warm"
                  else "cold" );
                ("outcome", !outcome) ]
            "bb.node" node_sp
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
