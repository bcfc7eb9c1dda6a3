(** The cross-solver differential oracle.

    The repo computes (or bounds) the same quantity five independent
    ways — {!Soctam_core.Exact}, the {!Soctam_core.Ilp_formulation}
    MILP, the {!Soctam_core.Dp_assign}/{!Soctam_core.Width_dp}
    alternation, {!Soctam_core.Heuristics} and
    {!Soctam_core.Annealing} — and the ad-hoc version of this
    comparison is what caught the PR 2 false-infeasibility simplex
    prune. {!check} makes that discipline permanent: one call runs
    every cross-check and metamorphic property on one instance and
    reports the first property that fails.

    Properties, in evaluation order (the order is part of the contract:
    the {!Shrink} minimizer preserves "first failing property"):

    - [exact_verified] — the exact optimum passes the independent
      {!Soctam_core.Verify} checker;
    - [ilp_matches_exact] — the MILP agrees with enumeration+DP on
      feasibility and optimal [T], and its architecture verifies
      (skipped above {!ilp_width_cap}: the MILP grows with [NB * W]);
    - [alternate_fixpoint_optimal] — P1/P2 alternation started at the
      optimum stays at the optimum;
    - [heuristic_within_bounds] / [annealing_within_bounds] — a
      heuristic result verifies, never beats the optimum, and never
      exists on an exactly-infeasible instance;
    - [permutation_invariant] — reversing the core order (constraint
      pairs relabelled along) leaves feasibility and optimal [T]
      unchanged;
    - [canon_key_invariant] — the {!Soctam_service.Canon} cache key is
      identical for the original and the relabelled instance;
    - [width_monotone] — one extra wire never hurts: feasibility is
      unchanged and optimal [T] does not increase;
    - [relaxation_monotone] — dropping all constraint pairs keeps the
      instance feasible and does not increase optimal [T];
    - [warm_equals_cold] — the MILP without the heuristic incumbent
      ([seed_incumbent:false]) reaches the same optimum (skipped above
      {!ilp_width_cap});
    - [presolve_equivalence] — the MILP with presolve and clique cuts
      both disabled reaches the same optimum: the strengthening
      pipeline changes search effort, never answers (skipped above
      {!ilp_width_cap}, and skipped when the oracle itself was asked to
      run without presolve and cuts — the plain pipeline was then
      already exercised by [ilp_matches_exact]);
    - [race_matches_exact] — the {!Soctam_engine.Race} portfolio,
      raced with no deadline, certifies the exact optimum and its
      re-derived architecture verifies;
    - [pack_bounds] — the {!Soctam_pack.Pack} rectangle-packing family
      sandwiches: every packing validates (no overlap, co-pairs
      serialized, envelope respected, also through the
      {!Soctam_sched.Profile} emission path), the greedy portfolio
      seeded with the partition optimum never exceeds it (when that
      schedule respects the [p_max] envelope the partition solvers
      never see), and the unseeded exact packer, where its search
      exhausts within the node budget, stays between the
      area/energy/co-pair lower bound and both the greedy and
      partition results (exact search skipped above 6 cores). *)

(** Artificial solver bugs, injectable to prove the oracle and the
    shrinker work (CI runs one on every push). They emulate realistic
    failure modes without touching the solvers themselves:
    [Exact_off_by_one] misreports the exact optimum by one cycle
    (an evaluation bug), [Ilp_drop_exclusion] builds the MILP without
    the first exclusion pair (a lost-constraint bug — only caught on
    instances where that pair binds, so the fuzzer has to search), and
    [Heuristic_overclaim] misreports the heuristic's test time (a
    claimed-vs-recomputed mismatch). *)
type fault =
  | No_fault
  | Exact_off_by_one
  | Ilp_drop_exclusion
  | Heuristic_overclaim

(** Stable CLI names of the injectable faults
    (["exact-off-by-one"], ...). *)
val fault_names : string list

(** Parses a CLI fault name ("none" is {!No_fault}). *)
val fault_of_string : string -> (fault, string) result

val fault_name : fault -> string

type failure = {
  property : string;  (** Stable property name (see {!properties}). *)
  detail : string;  (** Human-readable mismatch description. *)
}

(** All property names, in evaluation order. *)
val properties : string list

(** MILP-backed properties are skipped when [total_width] exceeds this
    (14, which covers the widths of the benchmark's MILP pool): the
    Big-M model grows with [NB * W] and the oracle must stay cheap
    enough to run hundreds of instances per fuzz run. *)
val ilp_width_cap : int

(** [check ?fault ?presolve ?cuts instance] runs every property against
    [instance] and returns the first failure, if any. Deterministic:
    heuristic seeds are fixed and the annealer runs a shortened
    schedule. [presolve]/[cuts] (default [true]) are forwarded to every
    MILP solve — running a fuzz batch with them off exercises the
    unstrengthened pipeline end to end. *)
val check :
  ?fault:fault ->
  ?presolve:bool ->
  ?cuts:bool ->
  Gen.instance ->
  (unit, failure) result
