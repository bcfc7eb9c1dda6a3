type disposition = Kept of int | Fixed of float

type stats = {
  merged : int;
  fixed : int;
  rows_removed : int;
  rounds : int;
}

type t = {
  reduced : Model.t;
  disposition : disposition array;
  orig_of_reduced : int array;
  stats : stats;
}

let eliminated t = t.stats.merged + t.stats.fixed

let int_tol = 1e-6
let feas_tol = 1e-7

(* Coefficients below this (after substitution cancelling) are treated
   as structural zeros; matches Lin_expr's own normalization scale. *)
let coeff_eps = 1e-9

(* A work row: terms keyed by current representative, constant already
   folded into [rhs]. *)
type wrow = {
  wname : string;
  wterms : (int * float) list;  (** Sorted by variable index. *)
  wsense : Model.sense;
  wrhs : float;
}

exception Infeasible_found of string

let kind_rank = function
  | Model.Continuous -> 0
  | Model.Integer -> 1
  | Model.Binary -> 2

let promote a b = if kind_rank a >= kind_rank b then a else b

let reduce (model : Model.t) : (t, string) result =
  let n = Model.num_vars model in
  let vars = Model.vars model in
  let lb = Array.init n (fun v -> vars.(v).Model.lb) in
  let ub = Array.init n (fun v -> vars.(v).Model.ub) in
  let kind = Array.init n (fun v -> vars.(v).Model.kind) in
  let parent = Array.init n Fun.id in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  let is_int v = kind.(v) <> Model.Continuous in
  (* Integral columns snap their bounds inward to integers; done after
     every tightening so emptiness checks see the decisive gap (a
     binary with ub 0.5 is a binary fixed at 0, not "almost free"). *)
  let snap v =
    if is_int v then begin
      lb.(v) <- Float.ceil (lb.(v) -. int_tol);
      ub.(v) <- Float.floor (ub.(v) +. int_tol)
    end
  in
  let check_box v =
    if lb.(v) > ub.(v) +. feas_tol then
      raise
        (Infeasible_found
           (Printf.sprintf "empty domain for %s: [%g, %g]"
              vars.(v).Model.name lb.(v) ub.(v)))
  in
  let changed = ref false in
  let tighten_lb v b =
    if b > lb.(v) +. 1e-12 then begin
      lb.(v) <- b;
      snap v;
      check_box v;
      changed := true
    end
  in
  let tighten_ub v b =
    if b < ub.(v) -. 1e-12 then begin
      ub.(v) <- b;
      snap v;
      check_box v;
      changed := true
    end
  in
  let is_fixed v =
    Float.is_finite lb.(v)
    && ub.(v) -. lb.(v) <= (if is_int v then 0.5 else 1e-11)
  in
  let merged = ref 0 in
  let union u v =
    let ru = find u and rv = find v in
    if ru <> rv then begin
      let root = min ru rv and child = max ru rv in
      parent.(child) <- root;
      incr merged;
      changed := true;
      if lb.(child) > lb.(root) then lb.(root) <- lb.(child);
      if ub.(child) < ub.(root) then ub.(root) <- ub.(child);
      kind.(root) <- promote kind.(root) kind.(child);
      snap root;
      check_box root
    end
  in
  (* Re-express a row in the current representative/fixing state. A
     representative's coefficients sum in [acc], in term order; [stamp]
     marks the entries the current row owns, so the scratch arrays
     serve every row without clearing. *)
  let acc = Array.make n 0.0 and stamp = Array.make n (-1) in
  let row_stamp = ref 0 in
  let substitute (r : wrow) : wrow =
    incr row_stamp;
    let cur = !row_stamp in
    let order = ref [] in
    let rhs = ref r.wrhs in
    List.iter
      (fun (v, c) ->
        let v = find v in
        if is_fixed v then rhs := !rhs -. (c *. lb.(v))
        else if stamp.(v) = cur then acc.(v) <- acc.(v) +. c
        else begin
          stamp.(v) <- cur;
          acc.(v) <- c;
          order := v :: !order
        end)
      r.wterms;
    let terms =
      List.rev !order
      |> List.filter_map (fun v ->
             let c = acc.(v) in
             if Float.abs c > coeff_eps then Some (v, c) else None)
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    { r with wterms = terms; wrhs = !rhs }
  in
  (* Process one substituted row. Returns [None] when the row has been
     absorbed (alias merge, bound tightening or trivially satisfied). *)
  let process (r : wrow) : wrow option =
    match r.wterms, r.wsense with
    | [], sense ->
        let ok =
          match sense with
          | Model.Le -> 0.0 <= r.wrhs +. feas_tol
          | Model.Ge -> 0.0 >= r.wrhs -. feas_tol
          | Model.Eq -> Float.abs r.wrhs <= feas_tol
        in
        if ok then None
        else
          raise
            (Infeasible_found
               (Printf.sprintf "row %s reduces to 0 %s %g" r.wname
                  (match sense with
                  | Model.Le -> "<="
                  | Model.Ge -> ">="
                  | Model.Eq -> "=")
                  r.wrhs))
    | [ (v, c) ], sense ->
        let b = r.wrhs /. c in
        (match sense, c > 0.0 with
        | Model.Le, true | Model.Ge, false -> tighten_ub v b
        | Model.Le, false | Model.Ge, true -> tighten_lb v b
        | Model.Eq, _ ->
            tighten_lb v b;
            tighten_ub v b);
        None
    | [ (u, cu); (v, cv) ], Model.Eq
      when Float.abs (cu +. cv) <= coeff_eps *. Float.max (Float.abs cu) 1.0
           && Float.abs r.wrhs <= feas_tol *. Float.max (Float.abs cu) 1.0 ->
        (* cu x_u - cu x_v = 0: the columns are forced equal. *)
        union u v;
        None
    | _ -> Some r
  in
  try
    let rows =
      ref
        (Array.to_list (Model.constrs model)
        |> List.map (fun (c : Model.constr) ->
               { wname = c.Model.cname;
                 wterms = Lin_expr.terms c.Model.expr;
                 wsense = c.Model.sense;
                 wrhs = c.Model.rhs }))
    in
    Array.iteri (fun v _ -> snap v; check_box v) vars;
    let rounds = ref 0 in
    let max_rounds = 50 in
    let continue = ref true in
    while !continue && !rounds < max_rounds do
      incr rounds;
      changed := false;
      rows := List.filter_map (fun r -> process (substitute r)) !rows;
      if not !changed then continue := false
    done;
    (* Compact the survivors into a fresh model. *)
    let reduced = Model.create () in
    let new_idx = Array.make n (-1) in
    let orig_rev = ref [] in
    let fixed_count = ref 0 in
    for v = 0 to n - 1 do
      if find v = v then
        if is_fixed v then incr fixed_count
        else begin
          let l, u =
            (* A promoted binary keeps the [0,1] box the model type
               requires; tightenings only ever shrank it. *)
            if kind.(v) = Model.Binary then
              (Float.max 0.0 lb.(v), Float.min 1.0 ub.(v))
            else (lb.(v), ub.(v))
          in
          new_idx.(v) <-
            Model.add_var reduced ~name:vars.(v).Model.name ~kind:kind.(v)
              ~lb:l ~ub:u;
          orig_rev := v :: !orig_rev
        end
    done;
    let disposition =
      Array.init n (fun v ->
          let r = find v in
          if is_fixed r then Fixed lb.(r) else Kept new_idx.(r))
    in
    List.iter
      (fun (r : wrow) ->
        let expr =
          Lin_expr.of_terms
            (List.map (fun (v, c) -> (new_idx.(v), c)) r.wterms)
        in
        Model.add_constr reduced ~name:r.wname expr r.wsense r.wrhs)
      !rows;
    let direction, obj = Model.objective model in
    let obj_constant = ref (Lin_expr.constant obj) in
    let obj_terms = ref [] in
    List.iter
      (fun (v, c) ->
        match disposition.(v) with
        | Fixed value -> obj_constant := !obj_constant +. (c *. value)
        | Kept i -> obj_terms := (i, c) :: !obj_terms)
      (Lin_expr.terms obj);
    Model.set_objective reduced direction
      (Lin_expr.of_terms ~constant:!obj_constant (List.rev !obj_terms));
    Ok
      { reduced;
        disposition;
        orig_of_reduced = Array.of_list (List.rev !orig_rev);
        stats =
          { merged = !merged;
            fixed = !fixed_count;
            rows_removed = Model.num_constrs model - List.length !rows;
            rounds = !rounds } }
  with Infeasible_found msg -> Error msg

let postsolve t point =
  Array.map
    (function Kept i -> point.(i) | Fixed v -> v)
    t.disposition
