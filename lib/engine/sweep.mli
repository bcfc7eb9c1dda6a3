(** Parallel width sweeps: the paper's outer evaluation loop.

    The DAC 2000 evaluation re-runs the architecture optimizer at every
    total-width point [W], for several SOCs, constraint sets and
    solvers. Each such {!cell} is independent, so the sweep fans the
    cells out over a {!Pool} of domains; each cell's test-time
    staircases come from a per-(SOC, model) {!Soctam_soc.Memo} built
    once at the widest point of the sweep and shared read-only by every
    domain.

    Determinism: {!run} returns rows in cell order, and every solver
    the sweep drives is deterministic, so the rows (test times,
    architectures, node counts) are independent of the pool size — only
    [elapsed_s] varies. [Ilp] cells given a [time_limit_s] are the one
    exception: a budget expiry depends on wall-clock load. *)

type solver =
  | Exact  (** Width-partition enumeration + assignment DP. *)
  | Ilp of {
      time_limit_s : float option;
      presolve : bool;
      cuts : bool;
      seed : bool;
    }
      (** The paper's MILP via the in-repo branch and bound. [presolve]
          and [cuts] toggle the model-strengthening pipeline (see
          {!Soctam_core.Ilp_formulation.solve}); both default to on in
          every CLI entry point, and disabling them changes work, not
          answers. [seed] (on everywhere by default, [--no-seed] in the
          CLI) primes branch and bound with the greedy heuristic's
          bound; the seeded value is reported as the row's
          [seeded_bound]. *)
  | Heuristic  (** Seeded LPT greedy + local search. *)
  | Race
      (** The {!Race} portfolio — packing bound, DP probe, greedy,
          annealing and DP against one shared incumbent, run
          sequentially in the cell's domain, so race rows are
          deterministic. *)
  | Pack of { p_max_mw : float option }
      (** The rectangle-packing family ({!Race.solve_pack}): greedy
          skyline portfolio plus certifying exact packer. Produces a
          [packing] (an explicit schedule), not an architecture;
          [p_max_mw] additionally enforces the instantaneous power
          envelope on the packed schedule. *)

type cell = {
  soc : Soctam_soc.Soc.t;
  num_buses : int;
  total_width : int;
  time_model : Soctam_soc.Test_time.model;
  constraints : Soctam_core.Problem.constraints;
  solver : solver;
}

type row = {
  total_width : int;
  num_buses : int;
  solution : (Soctam_core.Architecture.t * int) option;
  packing : Soctam_sched.Rect_sched.t option;
      (** [Pack] cells only: the packed schedule; its makespan is the
          cell's test time. [solution] stays [None] on such rows. *)
  optimal : bool;
      (** [false] only when an [Ilp] budget expired or the MILP fell
          back to its seed ([seed_fallback]). *)
  nodes : int;
      (** Search nodes: assignment-DP/B&B nodes for [Exact], MILP
          branch-and-bound nodes for [Ilp], [0] for [Heuristic]. *)
  lp_pivots : int;  (** Simplex pivots ([Ilp] only). *)
  max_depth : int;  (** Deepest MILP node ([Ilp] only). *)
  warm_starts : int;  (** Warm-started node LPs ([Ilp] only). *)
  cold_solves : int;  (** Cold two-phase LP solves ([Ilp] only). *)
  refactorizations : int;  (** LP basis (re)factorizations ([Ilp] only). *)
  cuts_added : int;  (** Clique-cover rows ([Ilp] only). *)
  presolve_fixed : int;  (** Variables eliminated ([Ilp] only). *)
  seeded_bound : int option;
      (** Heuristic incumbent that primed the MILP ([Ilp] with [seed]). *)
  seed_fallback : bool;
      (** The MILP's search found nothing below its seed, so the row
          carries the verified seed with [optimal = false] ([Ilp] only;
          see {!Soctam_core.Ilp_formulation.solve_stats}). *)
  winner : string option;
      (** Certifying (or best-incumbent) engine ([Race] only). *)
  cancelled_nodes : int;
      (** Always [0]; kept so the row's JSON, the wire format and
          stored rows keep their shape. *)
  elapsed_s : float;  (** Wall-clock spent solving this cell. *)
}

(** Aggregated per-sweep search effort, for CPU-statistics tables. *)
type totals = {
  cells : int;
  feasible : int;
  nodes : int;
  lp_pivots : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  solve_s : float;  (** Sum of per-cell [elapsed_s] (CPU-ish, not wall). *)
}

(** [cells ?time_model ?constraints ?solver soc ~num_buses ~widths]
    builds one cell per width, with defaults [Serialization],
    {!Soctam_core.Problem.no_constraints} and [Exact]. *)
val cells :
  ?time_model:Soctam_soc.Test_time.model ->
  ?constraints:Soctam_core.Problem.constraints ->
  ?solver:solver ->
  Soctam_soc.Soc.t ->
  num_buses:int ->
  widths:int list ->
  cell list

(** [solve_one ?deadline_s ?memo cell] evaluates one cell in the
    caller. When [memo] was built from the cell's very SOC value, under
    its time model, and covers its width, it is reused; otherwise a
    fresh memo is built. [deadline_s] is an absolute
    {!Soctam_obs.Clock.now_s} instant forwarded to the ILP time-limit
    path (see {!Soctam_core.Ilp_formulation.solve}) and to [Race]
    cells; [Exact] and [Heuristic] cells are fast on served instance
    sizes and run to completion. [on_event] streams a [Race] or [Pack]
    cell's improving incumbents. [on_ilp_stats]
    receives an [Ilp] cell's full MILP statistics, counters the row
    does not carry included.
    This is the daemon's per-request entry point. *)
val solve_one :
  ?deadline_s:float ->
  ?on_event:(Race.event -> unit) ->
  ?on_ilp_stats:(Soctam_core.Ilp_formulation.solve_stats -> unit) ->
  ?memo:Soctam_soc.Memo.t ->
  cell ->
  row

(** [run ?pool ?deadline_s cells] evaluates every cell and returns rows
    in cell order. Without a pool the cells run sequentially in the
    caller — bit-for-bit the behavior of the pre-engine loop; with a
    pool they are fanned out as independent tasks. Staircase memos are
    built up-front, one per distinct (SOC, time model) among the cells.
    [deadline_s] is shared by every cell: [Ilp] cells started after the
    deadline return a best-found ([optimal = false]) row immediately.
    [Race] and [Pack] cells stream their incumbents through [on_event],
    called from whichever domain solves the cell. *)
val run :
  ?pool:Pool.t ->
  ?deadline_s:float ->
  ?on_event:(Race.event -> unit) ->
  cell list ->
  row list

val totals : row list -> totals

(** Short stable solver tag: ["exact"], ["ilp"], ["heuristic"],
    ["race"], ["pack"]. Used in trace args and JSON output. *)
val solver_name : solver -> string

(** One row / the totals as JSON — the schema shared by
    [tamopt solve --json], [tamopt sweep --json], the [tamoptd]
    responses and the bench harness's [BENCH_sweep.json]. Feasible rows
    carry both the bus [widths] and the per-core bus [assignment];
    [Pack] rows carry the [placements] array instead (core, width,
    wire_lo, start, finish per rectangle) with [test_time] equal to the
    packing's makespan. *)
val json_of_row : row -> Soctam_obs.Json.t

(** Inverse of {!json_of_row}, used by the persistent result store to
    rebuild rows from stored JSON. Strict: any missing or ill-typed
    field is an [Error], so schema drift between store generations
    degrades to a store miss rather than a wrong answer. Round-trip
    law: [row_of_json (json_of_row r) = Ok r] for every row the sweep
    produces, and re-serializing the parsed row prints byte-identical
    JSON. *)
val row_of_json : Soctam_obs.Json.t -> (row, string) result

val json_of_totals : totals -> Soctam_obs.Json.t

(** [equal_rows a b] compares two sweeps for result equality —
    everything except the wall-clock [elapsed_s] fields, the race
    attribution [winner] and [cancelled_nodes]. Used by the [--jobs]
    equivalence checks. *)
val equal_rows : row list -> row list -> bool
