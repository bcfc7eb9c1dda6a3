module Int_map = Map.Make (Int)

type t = { terms : float Int_map.t; constant : float }

let eps = 1e-12

let normalize terms = Int_map.filter (fun _ c -> Float.abs c > eps) terms
let zero = { terms = Int_map.empty; constant = 0.0 }

let var ?(coeff = 1.0) v =
  if v < 0 then invalid_arg "Lin_expr.var: negative variable index";
  { terms = normalize (Int_map.singleton v coeff); constant = 0.0 }

let const c = { terms = Int_map.empty; constant = c }

let merge f e1 e2 =
  let combine _ a b =
    let c =
      match (a, b) with
      | Some a, Some b -> f a b
      | Some a, None -> f a 0.0
      | None, Some b -> f 0.0 b
      | None, None -> 0.0
    in
    if Float.abs c > eps then Some c else None
  in
  Int_map.merge combine e1 e2

let add e1 e2 =
  { terms = merge ( +. ) e1.terms e2.terms;
    constant = e1.constant +. e2.constant }

(* A constant-only [e2] (as in [Model.add_constr]) leaves each term at
   [a -. 0.0 = a]: the merge reduces to [normalize], which returns the
   map itself, uncopied, when no term drops. *)
let sub e1 e2 =
  { terms =
      (if Int_map.is_empty e2.terms then normalize e1.terms
       else merge ( -. ) e1.terms e2.terms);
    constant = e1.constant -. e2.constant }

let scale k e =
  if Float.abs k <= eps then zero
  else
    { terms = Int_map.map (fun c -> k *. c) e.terms;
      constant = k *. e.constant }

(* [terms] with [c] added to [v]'s coefficient by [merge]'s rule: the
   running sum leaves the map once it falls to [eps], and a later term
   starts it afresh. *)
let accumulate terms v c =
  Int_map.update v
    (fun prev ->
      let s = match prev with Some a -> a +. c | None -> c in
      if Float.abs s > eps then Some s else None)
    terms

let of_terms ?(constant = 0.0) pairs =
  let add_pair terms (v, c) =
    if v < 0 then invalid_arg "Lin_expr.var: negative variable index";
    (* A term at most [eps] is skipped, as [var] drops it. *)
    if Float.abs c > eps then accumulate terms v c else terms
  in
  (* [+. 0.0]: the constant is added to the fold's zero, which turns a
     -0.0 into 0.0. *)
  { terms = List.fold_left add_pair Int_map.empty pairs;
    constant = constant +. 0.0 }

let sum es =
  let add_expr terms e =
    Int_map.fold (fun v c acc -> accumulate acc v c) e.terms terms
  in
  { terms = List.fold_left add_expr Int_map.empty es;
    constant = List.fold_left (fun acc e -> acc +. e.constant) 0.0 es }

let constant e = e.constant

let coeff e v =
  match Int_map.find_opt v e.terms with Some c -> c | None -> 0.0

let iter_terms f e = Int_map.iter f e.terms
let terms e = Int_map.bindings e.terms

let eval e x =
  let acc = ref e.constant in
  let check v _ =
    if v >= Array.length x then
      invalid_arg "Lin_expr.eval: variable index out of bounds"
  in
  Int_map.iter check e.terms;
  Int_map.iter (fun v c -> acc := !acc +. (c *. x.(v))) e.terms;
  !acc

let size e = Int_map.cardinal e.terms
