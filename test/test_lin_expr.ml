module Lin_expr = Soctam_ilp.Lin_expr

let check_float = Alcotest.(check (float 1e-9))

let test_zero () =
  check_float "constant of zero" 0.0 (Lin_expr.constant Lin_expr.zero);
  Alcotest.(check int) "size of zero" 0 (Lin_expr.size Lin_expr.zero)

let test_var () =
  let e = Lin_expr.var ~coeff:2.5 3 in
  check_float "coeff present" 2.5 (Lin_expr.coeff e 3);
  check_float "coeff absent" 0.0 (Lin_expr.coeff e 1);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Lin_expr.var: negative variable index") (fun () ->
      ignore (Lin_expr.var (-1)))

let test_add_sub () =
  let e1 = Lin_expr.of_terms ~constant:1.0 [ (0, 1.0); (1, 2.0) ] in
  let e2 = Lin_expr.of_terms ~constant:2.0 [ (1, -2.0); (2, 4.0) ] in
  let s = Lin_expr.add e1 e2 in
  check_float "x0" 1.0 (Lin_expr.coeff s 0);
  check_float "x1 cancels" 0.0 (Lin_expr.coeff s 1);
  check_float "x2" 4.0 (Lin_expr.coeff s 2);
  check_float "constant" 3.0 (Lin_expr.constant s);
  Alcotest.(check int) "cancelled term dropped" 2 (Lin_expr.size s);
  let d = Lin_expr.sub e1 e1 in
  Alcotest.(check int) "self-subtraction empty" 0 (Lin_expr.size d)

let test_scale () =
  let e = Lin_expr.of_terms ~constant:3.0 [ (0, 2.0) ] in
  let s = Lin_expr.scale (-2.0) e in
  check_float "scaled coeff" (-4.0) (Lin_expr.coeff s 0);
  check_float "scaled constant" (-6.0) (Lin_expr.constant s);
  Alcotest.(check int) "scale by zero" 0 (Lin_expr.size (Lin_expr.scale 0.0 e))

let test_of_terms_accumulates () =
  let e = Lin_expr.of_terms [ (2, 1.0); (2, 2.5); (0, 1.0) ] in
  check_float "accumulated" 3.5 (Lin_expr.coeff e 2);
  Alcotest.(check int) "two distinct vars" 2 (Lin_expr.size e)

let test_eval () =
  let e = Lin_expr.of_terms ~constant:10.0 [ (0, 1.0); (2, -3.0) ] in
  check_float "eval" (10.0 +. 2.0 -. 9.0) (Lin_expr.eval e [| 2.0; 5.0; 3.0 |]);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Lin_expr.eval: variable index out of bounds")
    (fun () -> ignore (Lin_expr.eval e [| 1.0 |]))

let test_terms_sorted () =
  let e = Lin_expr.of_terms [ (5, 1.0); (1, 2.0); (3, 3.0) ] in
  Alcotest.(check (list int))
    "sorted indices" [ 1; 3; 5 ]
    (List.map fst (Lin_expr.terms e))

let arbitrary_expr =
  let open QCheck in
  let term = pair (int_bound 7) (float_bound_inclusive 10.0) in
  map
    (fun (terms, c) -> Lin_expr.of_terms ~constant:c terms)
    (pair (small_list term) (float_bound_inclusive 5.0))

let prop_eval_additive =
  QCheck.Test.make ~name:"eval is additive" ~count:200
    QCheck.(pair arbitrary_expr arbitrary_expr)
    (fun (e1, e2) ->
      let x = Array.init 8 (fun i -> float_of_int (i + 1) /. 3.0) in
      Float.abs
        (Lin_expr.eval (Lin_expr.add e1 e2) x
        -. (Lin_expr.eval e1 x +. Lin_expr.eval e2 x))
      < 1e-9)

let prop_scale_linear =
  QCheck.Test.make ~name:"eval commutes with scale" ~count:200
    QCheck.(pair arbitrary_expr (float_bound_inclusive 4.0))
    (fun (e, k) ->
      let x = Array.init 8 (fun i -> float_of_int (7 - i)) in
      Float.abs
        (Lin_expr.eval (Lin_expr.scale k e) x -. (k *. Lin_expr.eval e x))
      < 1e-6)

(* --- rows are built as a fold of [add] built them --- *)

(* The reference: [of_terms] and [sum] as folds of [add], one merge of
   the whole map per term or summand. *)
let add_term e v c = Lin_expr.add e (Lin_expr.var ~coeff:c v)

let ref_of_terms ?(constant = 0.0) pairs =
  let f acc (v, c) = add_term acc v c in
  Lin_expr.add (Lin_expr.const constant) (List.fold_left f Lin_expr.zero pairs)

let ref_sum es = List.fold_left Lin_expr.add Lin_expr.zero es

(* Terms and constant bit for bit: -0.0, and a running sum that fell
   to [eps], both show. *)
let bits e =
  ( List.map (fun (v, c) -> (v, Int64.bits_of_float c)) (Lin_expr.terms e),
    Int64.bits_of_float (Lin_expr.constant e) )

let same_bits e1 e2 = bits e1 = bits e2

(* Coefficients around [eps] = 1e-12 on both sides and of both signs,
   exact zeros, and ordinary values. *)
let coeff_gen =
  QCheck.Gen.(
    frequency
      [ (3, float_range (-10.0) 10.0);
        ( 3,
          oneofl
            [ 1e-12; -1e-12; 1.0000001e-12; -1.0000001e-12; 9.999e-13;
              -9.999e-13; 2e-12; -2e-12; 5e-13; -5e-13; 0.0; -0.0; 1.0;
              -1.0 ] );
        (1, map (fun x -> x *. 1e-12) (float_range (-3.0) 3.0)) ])

(* Term lists over 6 variables, so variables repeat, with cancelling
   pairs and pairs whose sum lands near [eps]. *)
let terms_gen =
  QCheck.Gen.(
    map List.concat
      (list_size (int_bound 12)
         (let* v = int_bound 5 and* c = coeff_gen in
          frequency
            [ (3, return [ (v, c) ]);
              (1, return [ (v, c); (v, -.c) ]);
              ( 1,
                let* d = coeff_gen in
                return [ (v, c); (v, d -. c) ] ) ])))

let constant_gen = QCheck.Gen.(oneof [ coeff_gen; return (-0.0) ])

let print_terms terms =
  String.concat "; "
    (List.map (fun (v, c) -> Printf.sprintf "(%d, %h)" v c) terms)

let prop_of_terms_matches_fold =
  QCheck.Test.make ~name:"of_terms matches a fold of add" ~count:1000
    (QCheck.make
       ~print:(fun (terms, c) -> Printf.sprintf "%s | %h" (print_terms terms) c)
       QCheck.Gen.(pair terms_gen constant_gen))
    (fun (terms, constant) ->
      same_bits
        (Lin_expr.of_terms ~constant terms)
        (ref_of_terms ~constant terms)
      && same_bits (Lin_expr.of_terms terms) (ref_of_terms terms))

(* Summands from the reference builder, some scaled so that they carry
   terms at or below [eps], which [add] drops when it merges them. *)
let summand_gen =
  QCheck.Gen.(
    let* terms = terms_gen and* constant = constant_gen in
    let e = ref_of_terms ~constant terms in
    frequency
      [ (3, return e);
        ( 1,
          map
            (fun k -> Lin_expr.scale k e)
            (oneofl [ -1.0; 1e-12; 1e-11; -3e-12; 0.5 ]) ) ])

let prop_sum_matches_fold =
  QCheck.Test.make ~name:"sum matches a fold of add" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) summand_gen))
    (fun es -> same_bits (Lin_expr.sum es) (ref_sum es))

(* [sub e1 e2] is [e1 + (-1) e2] bit for bit; a constant-only [e2] (the
   [Model.add_constr] case) takes the uncopied path. *)
let prop_sub_matches_add =
  QCheck.Test.make ~name:"sub matches add of the negation" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         pair summand_gen
           (oneof [ summand_gen; map Lin_expr.const constant_gen ])))
    (fun (e1, e2) ->
      same_bits (Lin_expr.sub e1 e2)
        (Lin_expr.add e1 (Lin_expr.scale (-1.0) e2)))

let suite =
  [ Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "var" `Quick test_var;
    Alcotest.test_case "add and sub" `Quick test_add_sub;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "of_terms accumulates" `Quick
      test_of_terms_accumulates;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "terms sorted" `Quick test_terms_sorted;
    QCheck_alcotest.to_alcotest prop_eval_additive;
    QCheck_alcotest.to_alcotest prop_scale_linear;
    QCheck_alcotest.to_alcotest prop_of_terms_matches_fold;
    QCheck_alcotest.to_alcotest prop_sum_matches_fold;
    QCheck_alcotest.to_alcotest prop_sub_matches_add ]
