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

let sub e1 e2 =
  { terms = merge ( -. ) e1.terms e2.terms;
    constant = e1.constant -. e2.constant }

let scale k e =
  if Float.abs k <= eps then zero
  else
    { terms = Int_map.map (fun c -> k *. c) e.terms;
      constant = k *. e.constant }

let add_term e v c = add e (var ~coeff:c v)

let of_terms ?(constant = 0.0) pairs =
  let f acc (v, c) = add_term acc v c in
  add (const constant) (List.fold_left f zero pairs)

let sum es = List.fold_left add zero es
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
