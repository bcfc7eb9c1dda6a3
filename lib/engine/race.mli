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
      across which engine happened to win the wall-clock race.

    One copy of this protocol serves two families, each with its own
    cell: the partition portfolio ({!solve}) and the rectangle-packing
    family ({!solve_pack}). *)

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

(** [solve problem] races the partition portfolio and returns the
    certified optimum (or the best incumbent on deadline expiry). The
    engines, by the name they publish, certify and win under:
    - ["pack"] raises the rectangle/area lower bound, sound because
      packing relaxes the partition model, and publishes nothing: a
      packing could undercut the partition optimum (see {!solve_pack});
    - ["greedy"]: {!Soctam_core.Heuristics}, restarts + local search;
    - ["anneal"]: {!Soctam_core.Annealing}, a 4,000-iteration schedule
      (a refinement engine here, not the last word);
    - ["dp"]: width-partition enumeration over {!Soctam_core.Dp_assign};
    - ["ilp"]: {!Soctam_core.Ilp_formulation} branch-and-bound.

    @param pool run the engines concurrently on this pool (the caller
      joins the crew). Without a pool — or on a one-domain pool — the
      race is sequential and certify-first: the ["pack"] bound, then a
      DP probe capped at {!probe_node_budget} nodes, which ends the race
      when it certifies; otherwise greedy, anneal, DP and ILP run in
      that order with cancellation checks between them, and DP resumes
      at the first width partition the probe did not finish. Results
      are identical either way by construction.
      Race tasks must not share a pool with an enclosing
      {!Pool.map} batch (pools do not nest); {!Sweep} therefore races
      sequentially inside each cell.
    @param deadline_s absolute {!Soctam_obs.Clock.now_s} instant; on
      expiry every engine stops cooperatively and the best incumbent is
      returned with [optimal = false].
    @param on_event called synchronously with each improving incumbent,
      in publication order, from the publishing domain — the streaming
      hook. Must be thread-safe when a pool is supplied. *)
val solve :
  ?pool:Pool.t ->
  ?deadline_s:float ->
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

(** [solve_pack problem] races the rectangle-packing family on the
    protocol of {!solve}, against its own cell: the greedy portfolio
    streams improving packings, and the exact branch-and-bound prunes
    against them and certifies on exhaustion. The exact packer is
    capped at 2,000,000 nodes; past the cap the race returns its best
    incumbent, uncertified. [pool] and [deadline_s] are as in {!solve}.

    @param p_max_mw instantaneous power envelope; enforced as
      [Soctam_pack.Pack.effective_budget].
    @param on_event improving packings, streamed as {!event}s with
      engine ["pack-greedy"] / ["pack-exact"]. *)
val solve_pack :
  ?pool:Pool.t ->
  ?deadline_s:float ->
  ?p_max_mw:float ->
  ?on_event:(event -> unit) ->
  Soctam_core.Problem.t ->
  pack_result
