module Problem = Soctam_core.Problem
module Benchmarks = Soctam_soc.Benchmarks
module Soc = Soctam_soc.Soc

(* [instance] is declared before [spec] on purpose: [spec] reuses the
   [num_buses]/[total_width] field names, and declaring it last keeps
   unannotated [spec.Gen.num_buses] accesses in the qcheck suites
   resolving to [spec], as they did before [instance] existed. *)
type instance = {
  soc : Soc.t;
  num_buses : int;
  total_width : int;
  excl : (int * int) list;
  co : (int * int) list;
  p_max : float option;
}

type spec = {
  seed : int;
  num_cores : int;
  num_buses : int;
  total_width : int;
  raw_excl : (int * int) list;
  raw_co : (int * int) list;
  p_max_pct : int option;
}

(* All structure flows from one salted [Random.State] stream, with
   explicit recursion (never [List.init]) so the draw order — and hence
   the spec — is pinned down exactly, independent of stdlib evaluation
   order. *)
let spec_of_seed ?(max_cores = 6) ?(pack_bias = false) ~seed () =
  let min_cores = 2 in
  if max_cores < min_cores then invalid_arg "Gen.spec_of_seed: max_cores < 2";
  let st = Random.State.make [| seed; 0xf0a2 |] in
  let int_in lo hi = lo + Random.State.int st (hi - lo + 1) in
  let soc_seed = Random.State.int st 10_001 in
  let num_cores = int_in min_cores max_cores in
  let num_buses = int_in 1 3 in
  let total_width = num_buses + int_in 0 8 in
  let rec draw_pairs n acc =
    if n = 0 then List.rev acc
    else
      let a = Random.State.int st num_cores in
      let b = Random.State.int st num_cores in
      draw_pairs (n - 1) ((a, b) :: acc)
  in
  let clean = List.filter (fun (a, b) -> a <> b) in
  let raw_excl = clean (draw_pairs (int_in 0 3) []) in
  let raw_co = clean (draw_pairs (int_in 0 2) []) in
  (* The biased draws come last so the unbiased prefix — and hence every
     historical seed -> spec mapping — is untouched. *)
  let total_width, raw_co, p_max_pct =
    if not pack_bias then (total_width, raw_co, None)
    else
      let total_width = total_width + int_in 0 8 in
      let raw_co = raw_co @ clean (draw_pairs (int_in 0 2) []) in
      (total_width, raw_co, Some (int_in 10 90))
  in
  { seed = soc_seed; num_cores; num_buses; total_width; raw_excl; raw_co;
    p_max_pct }

let pairs_print pairs =
  String.concat ";"
    (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) pairs)

let spec_print spec =
  Printf.sprintf "{seed=%d n=%d nb=%d W=%d excl=[%s] co=[%s]%s}" spec.seed
    spec.num_cores spec.num_buses spec.total_width
    (pairs_print spec.raw_excl) (pairs_print spec.raw_co)
    (match spec.p_max_pct with
    | None -> ""
    | Some pct -> Printf.sprintf " pmax=%d%%" pct)

let soc_of_spec spec =
  Benchmarks.random ~seed:spec.seed ~num_cores:spec.num_cores ()

(* [pct] interpolates between the tightest satisfiable envelope (the
   hungriest single core — anything lower forbids that core outright)
   and the never-binding one (every core at once). *)
let p_max_of_pct soc pct =
  let max_p = ref 0.0 and sum_p = ref 0.0 in
  for i = 0 to Soc.num_cores soc - 1 do
    let p = (Soc.core soc i).Soctam_soc.Core_def.power_mw in
    max_p := Float.max !max_p p;
    sum_p := !sum_p +. p
  done;
  !max_p +. (float_of_int pct /. 100.0 *. (!sum_p -. !max_p))

let problem_of_spec ?(constrained = true) spec =
  let constraints =
    if constrained then
      { Problem.exclusion_pairs = spec.raw_excl; co_pairs = spec.raw_co }
    else Problem.no_constraints
  in
  Problem.make (soc_of_spec spec) ~constraints ~num_buses:spec.num_buses
    ~total_width:spec.total_width

let instance_of_spec spec =
  let soc = soc_of_spec spec in
  { soc;
    num_buses = spec.num_buses;
    total_width = spec.total_width;
    excl = spec.raw_excl;
    co = spec.raw_co;
    p_max = Option.map (p_max_of_pct soc) spec.p_max_pct }

let problem_of_instance inst =
  Problem.make inst.soc
    ~constraints:{ Problem.exclusion_pairs = inst.excl; co_pairs = inst.co }
    ~num_buses:inst.num_buses ~total_width:inst.total_width

let instance_print inst =
  Printf.sprintf "{soc=%s n=%d nb=%d W=%d excl=[%s] co=[%s]%s}"
    (Soc.name inst.soc) (Soc.num_cores inst.soc) inst.num_buses
    inst.total_width (pairs_print inst.excl) (pairs_print inst.co)
    (match inst.p_max with
    | None -> ""
    | Some p -> Printf.sprintf " pmax=%.3f" p)
