module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Ilp = Soctam_core.Ilp_formulation
module Heuristics = Soctam_core.Heuristics
module Annealing = Soctam_core.Annealing
module Width_dp = Soctam_core.Width_dp
module Verify = Soctam_core.Verify
module Soc = Soctam_soc.Soc
module Test_time = Soctam_soc.Test_time
module Canon = Soctam_service.Canon
module Race = Soctam_engine.Race
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile
module Pack = Soctam_pack.Pack

type fault =
  | No_fault
  | Exact_off_by_one
  | Ilp_drop_exclusion
  | Heuristic_overclaim

let fault_name = function
  | No_fault -> "none"
  | Exact_off_by_one -> "exact-off-by-one"
  | Ilp_drop_exclusion -> "ilp-drop-exclusion"
  | Heuristic_overclaim -> "heuristic-overclaim"

let fault_names =
  List.map fault_name [ Exact_off_by_one; Ilp_drop_exclusion; Heuristic_overclaim ]

let fault_of_string = function
  | "none" -> Ok No_fault
  | "exact-off-by-one" -> Ok Exact_off_by_one
  | "ilp-drop-exclusion" -> Ok Ilp_drop_exclusion
  | "heuristic-overclaim" -> Ok Heuristic_overclaim
  | other ->
      Error
        (Printf.sprintf "unknown fault %S (one of: none, %s)" other
           (String.concat ", " fault_names))

type failure = { property : string; detail : string }

let properties =
  [ "exact_verified";
    "ilp_matches_exact";
    "alternate_fixpoint_optimal";
    "heuristic_within_bounds";
    "annealing_within_bounds";
    "permutation_invariant";
    "canon_key_invariant";
    "width_monotone";
    "relaxation_monotone";
    "warm_equals_cold";
    "presolve_equivalence";
    "race_matches_exact";
    "pack_bounds" ]

let ilp_width_cap = 14

(* The exact packer branches over permutations; past this many cores the
   oracle's per-instance cost stops being fuzz-friendly. *)
let pack_exact_core_cap = 6
let pack_exact_node_budget = 200_000

let fail property fmt =
  Printf.ksprintf (fun detail -> Error { property; detail }) fmt

let ( let* ) = Result.bind

let verdict = function
  | None -> "infeasible"
  | Some t -> Printf.sprintf "T=%d" t

(* The annealer's default 20k-iteration schedule is overkill for the
   tiny fuzz instances; a short schedule keeps the oracle at hundreds
   of instances per second without weakening the property (any
   feasible, verified outcome >= the optimum is acceptable). *)
let annealing_iterations = 1_500

(* Reverse the core order; constraint pairs move with the cores. Bus
   structure is untouched — this is exactly the relabelling the Canon
   cache key must be blind to. *)
let reversed_instance (inst : Gen.instance) =
  let n = Soc.num_cores inst.Gen.soc in
  let move i = n - 1 - i in
  let cores =
    List.init n (fun j -> Soc.core inst.Gen.soc (move j))
  in
  let remap = List.map (fun (a, b) -> (move a, move b)) in
  { inst with
    Gen.soc = Soc.make ~name:(Soc.name inst.Gen.soc) cores;
    excl = remap inst.Gen.excl;
    co = remap inst.Gen.co }

let check ?(fault = No_fault) ?(presolve = true) ?(cuts = true)
    (inst : Gen.instance) =
  let problem = Gen.problem_of_instance inst in
  let exact =
    match (Exact.solve problem).Exact.solution, fault with
    | Some (arch, t), Exact_off_by_one -> Some (arch, t - 1)
    | solution, _ -> solution
  in
  let exact_time = Option.map snd exact in
  (* exact_verified *)
  let* () =
    match exact with
    | None -> Ok ()
    | Some (arch, t) -> (
        match Verify.check problem arch ~claimed_time:t with
        | Ok () -> Ok ()
        | Error msg -> fail "exact_verified" "%s" msg)
  in
  (* ilp_matches_exact *)
  let* () =
    if Problem.total_width problem > ilp_width_cap then Ok ()
    else begin
      let ilp_problem =
        match fault, (Problem.constraints problem).Problem.exclusion_pairs with
        | Ilp_drop_exclusion, _ :: rest ->
            Problem.with_constraints problem
              { (Problem.constraints problem) with
                Problem.exclusion_pairs = rest }
        | _ -> problem
      in
      let ilp = Ilp.solve ~presolve ~cuts ilp_problem in
      if ilp.Ilp.stats.Ilp.seed_fallback then
        fail "ilp_matches_exact"
          "ILP search found nothing at or below its seed; seed returned"
      else if not ilp.Ilp.optimal then
        fail "ilp_matches_exact"
          "ILP lost its optimality claim (%d dropped nodes)"
          ilp.Ilp.stats.Ilp.dropped_nodes
      else
        match exact_time, ilp.Ilp.solution with
        | None, None -> Ok ()
        | Some t, None ->
            fail "ilp_matches_exact" "ILP infeasible but exact found T=%d" t
        | None, Some (_, t') ->
            fail "ilp_matches_exact"
              "ILP found T=%d on an exact-infeasible instance" t'
        | Some t, Some (arch, t') ->
            if t' <> t then
              fail "ilp_matches_exact" "ILP T=%d but exact T=%d" t' t
            else (
              (* Verify against the true problem: same T with a
                 constraint-violating architecture is still a bug. *)
              match Verify.check problem arch ~claimed_time:t' with
              | Ok () -> Ok ()
              | Error msg ->
                  fail "ilp_matches_exact" "ILP architecture rejected: %s"
                    msg)
    end
  in
  (* alternate_fixpoint_optimal *)
  let* () =
    match exact with
    | None -> Ok ()
    | Some (arch, t) -> (
        match Width_dp.alternate problem ~start:arch with
        | None ->
            fail "alternate_fixpoint_optimal"
              "P1/P2 alternation became infeasible from the optimum"
        | Some (_, t') ->
            if t' <> t then
              fail "alternate_fixpoint_optimal"
                "alternation reached T=%d from optimal T=%d" t' t
            else Ok ())
  in
  (* heuristic_within_bounds *)
  let* () =
    match Heuristics.solve ~seed:1 problem, exact_time with
    | None, _ -> Ok () (* greedy may get stuck on a feasible instance *)
    | Some o, None ->
        fail "heuristic_within_bounds"
          "heuristic found T=%d on an infeasible instance"
          o.Heuristics.test_time
    | Some o, Some t -> (
        let claimed =
          match fault with
          | Heuristic_overclaim -> o.Heuristics.test_time - 1
          | _ -> o.Heuristics.test_time
        in
        match Verify.check problem o.Heuristics.architecture
                ~claimed_time:claimed
        with
        | Error msg -> fail "heuristic_within_bounds" "%s" msg
        | Ok () ->
            if claimed < t then
              fail "heuristic_within_bounds"
                "heuristic T=%d beats the optimum T=%d" claimed t
            else Ok ())
  in
  (* annealing_within_bounds *)
  let* () =
    match
      Annealing.solve ~seed:1 ~iterations:annealing_iterations problem,
      exact_time
    with
    | None, _ -> Ok ()
    | Some o, None ->
        fail "annealing_within_bounds"
          "annealing found T=%d on an infeasible instance"
          o.Annealing.test_time
    | Some o, Some t -> (
        match Verify.check problem o.Annealing.architecture
                ~claimed_time:o.Annealing.test_time
        with
        | Error msg -> fail "annealing_within_bounds" "%s" msg
        | Ok () ->
            if o.Annealing.test_time < t then
              fail "annealing_within_bounds"
                "annealing T=%d beats the optimum T=%d"
                o.Annealing.test_time t
            else Ok ())
  in
  let reversed = reversed_instance inst in
  (* permutation_invariant *)
  let* () =
    let exact' = (Exact.solve (Gen.problem_of_instance reversed)).Exact.solution in
    match exact_time, Option.map snd exact' with
    | None, None -> Ok ()
    | Some t, Some t' when t = t' -> Ok ()
    | v, v' ->
        fail "permutation_invariant" "core order changes the answer: %s vs %s"
          (verdict v) (verdict v')
  in
  (* canon_key_invariant *)
  let* () =
    let key (i : Gen.instance) =
      (Canon.of_instance ~soc:i.Gen.soc ~time_model:Test_time.Serialization
         ~constraints:
           { Problem.exclusion_pairs = i.Gen.excl; co_pairs = i.Gen.co }
         ~solver:"exact" ~num_buses:i.Gen.num_buses
         ~total_width:i.Gen.total_width ())
        .Canon.key
    in
    if key inst = key reversed then Ok ()
    else
      fail "canon_key_invariant"
        "canonical cache key differs under core relabelling"
  in
  (* width_monotone *)
  let* () =
    let wider =
      Gen.problem_of_instance
        { inst with Gen.total_width = inst.Gen.total_width + 1 }
    in
    match exact_time, Option.map snd (Exact.solve wider).Exact.solution with
    | None, None -> Ok ()
    | Some t, Some t' when t' <= t -> Ok ()
    | v, v' ->
        fail "width_monotone" "one extra wire hurt: W=%d %s, W=%d %s"
          inst.Gen.total_width (verdict v)
          (inst.Gen.total_width + 1) (verdict v')
  in
  (* relaxation_monotone *)
  let* () =
    let relaxed = Problem.with_constraints problem Problem.no_constraints in
    match (Exact.solve relaxed).Exact.solution with
    | None ->
        fail "relaxation_monotone" "unconstrained instance reported infeasible"
    | Some (_, t') -> (
        match exact_time with
        | None -> Ok ()
        | Some t ->
            if t' <= t then Ok ()
            else
              fail "relaxation_monotone"
                "dropping constraints raised T: %d -> %d" t t')
  in
  (* warm_equals_cold *)
  let* () =
    if Problem.total_width problem > ilp_width_cap then Ok ()
    else begin
      (* ilp_matches_exact already pinned the warm (incumbent-seeded)
         solve to the exact optimum; one cold solve closes the loop. *)
      let cold = Ilp.solve ~seed_incumbent:false ~presolve ~cuts problem in
      if not cold.Ilp.optimal then
        fail "warm_equals_cold" "cold ILP lost its optimality claim"
      else
        match exact_time, Option.map snd cold.Ilp.solution with
        | None, None -> Ok ()
        | Some t, Some t' when t = t' -> Ok ()
        | v, v' ->
            fail "warm_equals_cold"
              "incumbent seeding changes the answer: %s vs %s" (verdict v)
              (verdict v')
    end
  in
  (* presolve_equivalence *)
  let* () =
    if Problem.total_width problem > ilp_width_cap then Ok ()
    else if not (presolve || cuts) then
      (* ilp_matches_exact already ran the plain pipeline. *)
      Ok ()
    else begin
      (* The strengthening pipeline must change search effort only, never
         answers: re-solve with presolve and cuts both off and pin the
         verdict to the exact optimum again. *)
      let plain = Ilp.solve ~presolve:false ~cuts:false problem in
      if not plain.Ilp.optimal then
        fail "presolve_equivalence" "plain ILP lost its optimality claim"
      else
        match exact_time, Option.map snd plain.Ilp.solution with
        | None, None -> Ok ()
        | Some t, Some t' when t = t' -> Ok ()
        | v, v' ->
            fail "presolve_equivalence"
              "disabling presolve+cuts changes the answer: %s vs %s"
            (verdict v) (verdict v')
    end
  in
  (* race_matches_exact *)
  (* The portfolio (no deadline) must certify the exact optimum and
     return a verified architecture. *)
  let* () =
    let race = Race.solve problem in
    if not race.Race.optimal then
      fail "race_matches_exact" "race returned without a certificate"
    else
      match exact_time, race.Race.solution with
      | None, None -> Ok ()
      | Some t, None ->
          fail "race_matches_exact" "race infeasible but exact found T=%d" t
      | None, Some (_, t') ->
          fail "race_matches_exact"
            "race found T=%d on an exact-infeasible instance" t'
      | Some t, Some (arch, t') ->
          if t' <> t then
            fail "race_matches_exact" "race T=%d but exact T=%d" t' t
          else (
            match Verify.check problem arch ~claimed_time:t' with
            | Ok () -> Ok ()
            | Error msg ->
                fail "race_matches_exact" "race architecture rejected: %s" msg)
  in
  (* pack_bounds *)
  (* The rectangle-packing family against the partition optimum. The
     partition optimum bounds the packing family only when its own
     schedule, converted to a packing, is feasible under the envelope
     (partition solvers never see [p_max]) — that converted schedule
     also seeds the greedy portfolio, making "seeded greedy <= partition
     optimum" a real claim rather than a coincidence of the heuristics.
     The exact packer runs unseeded; its claims only apply when the
     search exhausted within the node budget (the certificate). *)
  let p_max_mw = inst.Gen.p_max in
  let pack_lb = Pack.lower_bound ?p_max_mw problem in
  let seed_archs =
    match exact with Some (arch, _) -> [ arch ] | None -> []
  in
  let partition_bound =
    match exact with
    | None -> None
    | Some (arch, t) -> (
        match
          Pack.validate ?p_max_mw problem
            (Rect_sched.of_architecture problem arch)
        with
        | Ok () -> Some t
        | Error _ -> None)
  in
  let greedy = Pack.greedy ?p_max_mw ~seed_archs problem in
  let* () =
    match Pack.validate ?p_max_mw problem greedy with
    | Ok () -> Ok ()
    | Error msg -> fail "pack_bounds" "greedy packing rejected: %s" msg
  in
  let* () =
    if greedy.Rect_sched.makespan < pack_lb then
      fail "pack_bounds" "greedy makespan %d beats the lower bound %d"
        greedy.Rect_sched.makespan pack_lb
    else Ok ()
  in
  let* () =
    match partition_bound with
    | Some t when greedy.Rect_sched.makespan > t ->
        fail "pack_bounds"
          "seeded greedy makespan %d exceeds the partition optimum %d"
          greedy.Rect_sched.makespan t
    | _ -> Ok ()
  in
  let* () =
    (* The packing's own power profile must respect the envelope too. *)
    match p_max_mw with
    | None -> Ok ()
    | Some p ->
        let budget = Pack.effective_budget problem ~p_max_mw:p in
        let profile = Profile.of_schedule problem greedy in
        if Profile.respects ~p_max_mw:budget profile then Ok ()
        else
          fail "pack_bounds" "greedy packing violates the %.3f mW envelope"
            budget
  in
  if Soc.num_cores inst.Gen.soc > pack_exact_core_cap then Ok ()
  else begin
    let r =
      Pack.exact ?p_max_mw ~node_budget:pack_exact_node_budget problem
    in
    if not r.Pack.optimal then Ok () (* budget blown: no claim *)
    else
      match r.Pack.packing with
      | None ->
          fail "pack_bounds" "unseeded exact packer certified no packing"
      | Some p ->
          let* () =
            match Pack.validate ?p_max_mw problem p with
            | Ok () -> Ok ()
            | Error msg ->
                fail "pack_bounds" "exact packing rejected: %s" msg
          in
          let t = p.Rect_sched.makespan in
          if t < pack_lb then
            fail "pack_bounds" "exact makespan %d beats the lower bound %d"
              t pack_lb
          else if t > greedy.Rect_sched.makespan then
            fail "pack_bounds" "exact makespan %d exceeds greedy %d" t
              greedy.Rect_sched.makespan
          else (
            match partition_bound with
            | Some pt when t > pt ->
                fail "pack_bounds"
                  "exact packing %d exceeds the partition optimum %d" t pt
            | _ -> Ok ())
  end
