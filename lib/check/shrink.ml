module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

type result = {
  instance : Gen.instance;
  oracle_calls : int;
  steps : int;
}

let cores_list soc = Array.to_list (Soc.cores soc)

let with_cores (inst : Gen.instance) cores =
  { inst with Gen.soc = Soc.make ~name:(Soc.name inst.Gen.soc) cores }

(* Drop core [i]: pairs touching it disappear, higher indices shift
   down. *)
let drop_core (inst : Gen.instance) i =
  let cores = List.filteri (fun j _ -> j <> i) (cores_list inst.Gen.soc) in
  let remap =
    List.filter_map (fun (a, b) ->
        if a = i || b = i then None
        else
          Some
            ((if a > i then a - 1 else a), (if b > i then b - 1 else b)))
  in
  { (with_cores inst cores) with
    Gen.excl = remap inst.Gen.excl;
    co = remap inst.Gen.co }

let replace_core (inst : Gen.instance) i core =
  with_cores inst
    (List.mapi (fun j c -> if j = i then core else c) (cores_list inst.Gen.soc))

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Staircase truncations for one core, in decreasing-aggressiveness
   order. Record updates keep the name (uniqueness) and footprint; all
   edits preserve Core_def's invariants (patterns >= 1,
   1 <= chains <= flip_flops). *)
let truncations (core : Core_def.t) =
  let demoted =
    match core.Core_def.scan with
    | Core_def.Combinational -> []
    | Core_def.Scan _ -> [ { core with Core_def.scan = Core_def.Combinational } ]
  in
  let halved_ff =
    match core.Core_def.scan with
    | Core_def.Scan { flip_flops; chains } when flip_flops >= 2 ->
        let flip_flops = flip_flops / 2 in
        [ { core with
            Core_def.scan =
              Core_def.Scan { flip_flops; chains = min chains flip_flops } } ]
    | _ -> []
  in
  let halved_patterns =
    if core.Core_def.patterns >= 2 then
      [ { core with Core_def.patterns = core.Core_def.patterns / 2 } ]
    else []
  in
  demoted @ halved_ff @ halved_patterns

(* Candidate edits, biggest reductions first. Built eagerly (cheap);
   evaluated lazily by the greedy search. *)
let candidates (inst : Gen.instance) =
  let n = Soc.num_cores inst.Gen.soc in
  let drops =
    if n <= 1 then [] else List.init n (fun i -> drop_core inst i)
  in
  let collapse_width =
    if inst.Gen.total_width > inst.Gen.num_buses then
      [ { inst with Gen.total_width = inst.Gen.num_buses } ]
    else []
  in
  let fewer_buses =
    if inst.Gen.num_buses >= 2 then
      [ { inst with Gen.num_buses = inst.Gen.num_buses - 1 } ]
    else []
  in
  let fewer_excl =
    List.mapi
      (fun k _ -> { inst with Gen.excl = drop_nth inst.Gen.excl k })
      inst.Gen.excl
  in
  let fewer_co =
    List.mapi
      (fun k _ -> { inst with Gen.co = drop_nth inst.Gen.co k })
      inst.Gen.co
  in
  let drop_pmax =
    match inst.Gen.p_max with
    | Some _ -> [ { inst with Gen.p_max = None } ]
    | None -> []
  in
  let truncated =
    List.concat
      (List.init n (fun i ->
           List.map (replace_core inst i) (truncations (Soc.core inst.Gen.soc i))))
  in
  let narrower =
    if inst.Gen.total_width > inst.Gen.num_buses then
      [ { inst with Gen.total_width = inst.Gen.total_width - 1 } ]
    else []
  in
  drops @ collapse_width @ fewer_buses @ fewer_excl @ fewer_co @ drop_pmax
  @ truncated @ narrower

let max_oracle_calls = 400

let shrink ~check ~property inst0 =
  let calls = ref 0 and steps = ref 0 in
  let still_fails inst =
    !calls < max_oracle_calls
    && begin
         incr calls;
         match check inst with
         | Error { Oracle.property = p; _ } -> String.equal p property
         | Ok () -> false
       end
  in
  let rec improve inst =
    match List.find_opt still_fails (candidates inst) with
    | Some smaller ->
        incr steps;
        improve smaller
    | None -> inst
  in
  let instance = improve inst0 in
  { instance; oracle_calls = !calls; steps = !steps }
