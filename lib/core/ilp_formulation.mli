(** The DAC 2000 integer linear programming formulation.

    Decision variables: [x_ij] (core [i] rides bus [j]), [delta_jk] (bus
    [j] has width [k]), and the makespan [T]. Every bus takes exactly one
    width, widths sum to the budget, every core takes exactly one bus,
    and each bus's summed core time at its selected width is at most [T].
    Exclusion pairs add [x_aj + x_bj ≤ 1]; co-assignment pairs add
    [x_aj = x_bj].

    The width/time product is linearized in one of two ways:
    - {b Big_m} (default): per (bus, width) row
      [Σ_i t_i(k) x_ij − T ≤ M_k (1 − delta_jk)] with
      [M_k = Σ_i t_i(k)]; compact but with a weaker LP relaxation.
    - {b Linearized}: explicit products [y_ijk = x_ij ∧ delta_jk] and
      exact per-bus rows; tighter but much larger (used on small
      instances for ablation A1).

    The MILP is solved with {!Soctam_ilp.Branch_bound}, optionally seeded
    with a heuristic incumbent and with symmetry-breaking rows ordering
    bus widths non-increasingly.

    The model is strengthened in two layers: {!Soctam_ilp.Cuts}
    replaces pairwise exclusion rows with a clique cover of the conflict
    graph at build time, and {!Soctam_ilp.Presolve} merges co-assigned
    variable pairs and propagates exclusion-forced fixings before the
    search (the search runs on the reduced model; points are postsolved
    back before decoding). Both layers are optional ([~cuts] /
    [~presolve]) and exactness-preserving: disabling them changes work,
    not answers. {!solve} and {!solve_assignment} run the same pipeline:
    presolve, branch and bound, decode. *)

type formulation = Big_m | Linearized

type solve_stats = {
  variables : int;
  constraints : int;
  bb_nodes : int;
  lp_pivots : int;
  max_depth : int;  (** Deepest branch-and-bound node expanded. *)
  warm_starts : int;  (** Node LPs warm-started from the parent basis. *)
  cold_solves : int;  (** Cold two-phase LP solves, fallbacks included. *)
  refactorizations : int;
      (** Basis (re)factorizations in the shared LP handle: cold starts,
          warm restores and the periodic Forrest-Tomlin refresh. *)
  dropped_nodes : int;
      (** Nodes abandoned on an LP pivot budget; nonzero forfeits the
          optimality claim ([optimal] is [false]). *)
  propagated_nodes : int;
      (** Nodes closed by domain propagation before their LP (counted
          in [bb_nodes] too). *)
  seeded_bound : int option;
      (** Test time of the heuristic incumbent that primed the search
          ([None] when seeding was disabled, found nothing, or the
          budget was already spent). *)
  seed_fallback : bool;
      (** Branch and bound ended without a point of its own (an
          [Infeasible] verdict, or a budget that expired first), so the
          verified heuristic seed is the answer, with [optimal = false]. *)
  cuts_added : int;
      (** Clique rows strengthening the model: the clique cover's rows
          of size [>= 3], installed at build time. *)
  presolve_fixed : int;
      (** Variables eliminated by the presolve (merged into an alias
          class representative or fixed to a bound). *)
  elapsed_s : float;
}

type result = {
  solution : (Architecture.t * int) option;
      (** Best architecture and its test time; [None] when infeasible. *)
  optimal : bool;
      (** [true] when the solution is proven optimal; [false] when a node
          or time budget expired first. *)
  stats : solve_stats;
}

(** [build ?formulation ?symmetry_breaking ?cuts problem] constructs the
    MILP. Returns the model together with the variable index maps
    [(x, delta, t)] needed to decode a solution: [x.(i).(j)],
    [delta.(j).(k-1)] for widths [k] in [1..kmax]. Symmetry breaking
    defaults to [true] (it is disabled for ablation A2). With [~cuts]
    (default [false]) pairwise exclusion rows are replaced by an
    edge-covering set of clique rows over the conflict graph — an
    equally valid but tighter formulation. *)
val build :
  ?formulation:formulation ->
  ?symmetry_breaking:bool ->
  ?cuts:bool ->
  Problem.t ->
  Soctam_ilp.Model.t * int array array * int array array * int

(** [solve ?formulation ?symmetry_breaking ?seed_incumbent problem]
    builds and solves the MILP to optimality, within
    {!Soctam_ilp.Branch_bound.solve}'s default node budget.
    [seed_incumbent] (default [true]) primes branch and bound with the
    heuristic solution's value and keeps its architecture as the
    fallback answer: when the search ends with no point of its own, the
    [Verify]-checked seed is returned with [optimal = false] and
    [seed_fallback] set, so a seeded solve never answers "infeasible"
    on a feasible instance.

    [deadline_s] is an {e absolute} {!Soctam_obs.Clock.now_s} instant
    (as opposed to the relative [time_limit_s]); the effective budget
    is the smaller of the two. It exists for request-serving callers
    ([tamoptd]): queue wait counts against the client's deadline, and
    an already-expired deadline returns a best-found
    ([optimal = false]) verdict immediately instead of stalling a
    worker.

    [presolve] (default [true]) reduces the model before the search and
    postsolves the answer; [cuts] (default [true]) enables the clique
    cover. Both are escape hatches for debugging and differential
    testing — results are identical either way. *)
val solve :
  ?formulation:formulation ->
  ?symmetry_breaking:bool ->
  ?seed_incumbent:bool ->
  ?time_limit_s:float ->
  ?deadline_s:float ->
  ?presolve:bool ->
  ?cuts:bool ->
  Problem.t ->
  result

(** [solve_assignment ?time_limit_s problem ~widths] solves
    the assignment-only sub-problem (problem [P1] of the VTS 2000
    companion formulation): bus widths are fixed and only the core
    assignment [x_ij] and the makespan [T] remain. The returned
    architecture uses exactly [widths]. Raises [Invalid_argument] when
    [widths] does not match the instance's bus count or width budget.
    [presolve] and [cuts] behave as in {!solve}; the search has no
    heuristic seed and no branch priority. *)
val solve_assignment :
  ?time_limit_s:float ->
  ?deadline_s:float ->
  ?presolve:bool ->
  ?cuts:bool ->
  Problem.t ->
  widths:int array ->
  result
