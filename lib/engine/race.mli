(** Anytime portfolio racing over one shared incumbent.

    The paper's tension — exact-but-slow MILP against fast-but-loose
    heuristics — becomes a cooperation protocol: every engine in the
    portfolio runs against one shared atomic incumbent cell. Fast
    engines (rectangle-packing bound, greedy, annealing) publish
    feasible architectures within milliseconds; the exact engines (the
    partition-enumerating DP and the MILP branch-and-bound) read the
    cell to prune, publish their own improvements, and — being
    complete — certify the final value. The first certificate
    cooperatively cancels every losing engine: a shared stop flag is
    polled per annealing iteration, per DP partition, per
    branch-and-bound node and per simplex pivot, and a
    {!Pool.Cancel.token} keeps stale queued engine tasks from ever
    starting.

    Soundness invariants:
    - the cell only ever holds {e feasible} architectures, and its test
      time only decreases — so pruning against it never cuts the true
      optimum;
    - a certificate is only issued by a complete engine finishing
      un-cancelled (DP over all width partitions, or branch-and-bound
      exhausting its tree), or by the incumbent meeting the area lower
      bound;
    - a certified race {e re-derives} the winning architecture with a
      deterministic bounded DP pass, so the reported solution is a pure
      function of the instance — identical across [--jobs 1/2/4] and
      across which engine happened to win the wall-clock race. *)

type engine =
  | Pack
      (** Publishes the rectangle/area lower bound, no solution. The
          bound is sound for the partition model (packing relaxes it),
          but a packing incumbent would not be — it can undercut the
          partition optimum and poison the exact engines' pruning. The
          packing family therefore races against its own cell in
          {!solve_pack}. *)
  | Greedy  (** {!Soctam_core.Heuristics}, restarts + local search. *)
  | Anneal  (** {!Soctam_core.Annealing}, shortened schedule. *)
  | Dp  (** Width-partition enumeration over {!Soctam_core.Dp_assign}. *)
  | Ilp  (** {!Soctam_core.Ilp_formulation} branch-and-bound. *)

val engine_name : engine -> string

(** All five, in publication order: bound, then heuristics, then the
    complete engines. Sequential (poolless) races run them in this
    order, so earlier engines seed bounds for later ones — except that
    DP first runs a probe of at most {!probe_node_budget} nodes right
    after the bound (see {!solve}). *)
val default_engines : engine list

(** Node budget of the sequential race's certify-first DP probe
    (16,384). Sized from measured designer-loop traffic: enough for DP
    to certify every race there, small enough that a race the probe
    cannot close pays about one heuristic phase for trying. *)
val probe_node_budget : int

(** One improving incumbent, in publication order. [elapsed_ms] is
    measured from race start on the publishing domain's clock. *)
type event = { test_time : int; engine : string; elapsed_ms : float }

type result = {
  solution : (Soctam_core.Architecture.t * int) option;
      (** Best architecture and test time; [None] when infeasible (if
          [optimal]) or when no engine found anything in time. *)
  optimal : bool;
      (** [true] iff a certificate was issued; [false] means the
          deadline expired first and [solution] is best-found only. *)
  winner : string option;
      (** Engine that issued the certificate — or, uncertified, the
          engine holding the final incumbent. *)
  certificate : string option;
      (** ["dp"], ["ilp"] or ["bound"]; [None] when uncertified. *)
  incumbents : int;  (** Improving publications over the whole race. *)
  nodes : int;  (** DP assignment nodes + branch-and-bound nodes. *)
  lp_pivots : int;
  warm_starts : int;
  cold_solves : int;
  refactorizations : int;
  cuts_added : int;
  presolve_fixed : int;
  cancelled_nodes : int;
      (** Branch-and-bound nodes abandoned unexplored when the race
          cancelled the MILP — the work the winner saved. *)
  elapsed_s : float;
}

(** [solve problem] races the portfolio and returns the certified
    optimum (or the best incumbent on deadline expiry).

    @param pool run engines concurrently on this pool (the caller joins
      the crew). Without a pool — or on a one-domain pool — the race is
      sequential and certify-first: the [Pack] bound, then a DP probe
      capped at {!probe_node_budget} nodes, which ends the race when it
      certifies; otherwise the other engines run in list order with
      cancellation checks between them, and DP resumes at the first
      width partition the probe did not finish. Results are identical
      either way by construction.
      Race tasks must not share a pool with an enclosing
      {!Pool.map} batch (pools do not nest); {!Sweep} therefore races
      sequentially inside each cell.
    @param deadline_s absolute {!Soctam_obs.Clock.now_s} instant; on
      expiry every engine stops cooperatively and the best incumbent is
      returned with [optimal = false].
    @param engines portfolio subset (default {!default_engines}).
    @param anneal_iterations annealing schedule length (default 4000 —
      shorter than the standalone default: in a race the annealer is a
      refinement engine, not the last word).
    @param on_event called synchronously with each improving incumbent,
      in publication order, from the publishing domain — the streaming
      hook. Must be thread-safe when a pool is supplied. *)
val solve :
  ?pool:Pool.t ->
  ?deadline_s:float ->
  ?engines:engine list ->
  ?anneal_iterations:int ->
  ?on_event:(event -> unit) ->
  Soctam_core.Problem.t ->
  result

(** Outcome of the rectangle-packing race. Mirrors {!result} with a
    packing in place of an architecture. *)
type pack_result = {
  packing : Soctam_sched.Rect_sched.t option;
      (** Best packing found; a packing always exists, so [None] only
          on an immediate deadline expiry. *)
  optimal : bool;
  winner : string option;  (** ["pack-greedy"] or ["pack-exact"]. *)
  certificate : string option;  (** ["exact"] or ["bound"]. *)
  incumbents : int;
  nodes : int;  (** Exact-packer branch-and-bound nodes. *)
  lower_bound : int;
      (** The strengthened area/co-pair/energy bound the race pruned
          against ({!Soctam_pack.Pack.lower_bound}). *)
  elapsed_s : float;
}

(** [solve_pack problem] races the rectangle-packing family — the
    greedy portfolio streaming improving packings into a shared cell,
    and the exact branch-and-bound pruning against that cell and
    certifying on exhaustion — with the same protocol as {!solve}:
    strict-improvement publication, bound-match certificates,
    first-certificate-wins cancellation, and a deterministic bounded
    re-derivation of the certified packing so the answer is a pure
    function of the instance across job counts.

    @param p_max_mw instantaneous power envelope; enforced as
      [Soctam_pack.Pack.effective_budget].
    @param node_budget exact-packer node cap (default 2e6); on a blow
      the race still returns the best incumbent, uncertified.
    @param on_event improving packings, streamed as {!event}s with
      engine ["pack-greedy"] / ["pack-exact"]. *)
val solve_pack :
  ?pool:Pool.t ->
  ?deadline_s:float ->
  ?p_max_mw:float ->
  ?node_budget:int ->
  ?on_event:(event -> unit) ->
  Soctam_core.Problem.t ->
  pack_result
