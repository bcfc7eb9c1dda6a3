(** Anytime portfolio racing over one shared incumbent.

    The paper's tension — exact-but-slow search against fast-but-loose
    heuristics — becomes a cooperation protocol: the engines of a
    portfolio run one after another on the caller's domain against one
    shared incumbent cell. Fast engines (rectangle-packing bound,
    greedy, annealing) publish feasible architectures within
    milliseconds; the complete engine (the partition-enumerating DP)
    prunes against the cell, publishes its own improvements, and
    certifies the final value. The first certificate ends the race: the
    engine running stops at its next poll (per greedy restart, annealing
    iteration or DP partition) and the engines after it never start.

    Soundness invariants:
    - the cell only ever holds {e feasible} architectures, and its test
      time only decreases — so pruning against it never cuts the true
      optimum;
    - a certificate is only issued by a complete engine finishing
      un-stopped (DP over all width partitions), or by the incumbent
      meeting the area lower bound;
    - a certified race {e re-derives} the winning architecture with
      deterministic DP passes bounded just above the certified time,
      keeping the first partition (in order) that meets it, so the
      reported solution is a pure function of the instance, whichever
      engine certified it.

    One copy of this protocol serves two families, each with its own
    cell: the partition portfolio ({!solve}) and the rectangle-packing
    family ({!solve_pack}). The paper's MILP is not an engine here: DP
    always certifies before it could run. It stays a solver of its own
    ({!Soctam_core.Ilp_formulation}). *)

(** Node budget of the race's certify-first DP probe (16,384). Sized
    from measured designer-loop traffic: enough for DP to certify every
    race there, small enough that a race the probe cannot close pays
    about one heuristic phase for trying. *)
val probe_node_budget : int

(** One improving incumbent, in publication order. [elapsed_ms] is
    measured from race start. *)
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
      (** ["dp"] or ["bound"]; [None] when uncertified. *)
  incumbents : int;  (** Improving publications over the whole race. *)
  nodes : int;  (** DP assignment nodes. *)
  elapsed_s : float;
}

(** [solve problem] races the partition portfolio and returns the
    certified optimum (or the best incumbent on deadline expiry). The
    engines, by the name they publish, certify and win under, in race
    order:
    - ["pack"] raises the rectangle/area lower bound, sound because
      packing relaxes the partition model, and publishes nothing: a
      packing could undercut the partition optimum (see {!solve_pack});
    - ["dp"], first as a probe: width-partition enumeration over
      {!Soctam_core.Dp_assign} capped at {!probe_node_budget} nodes,
      which ends the race when it finishes every partition;
    - ["greedy"]: {!Soctam_core.Heuristics}, restarts + local search;
    - ["anneal"]: {!Soctam_core.Annealing}, a 4,000-iteration schedule
      (a refinement engine here, not the last word);
    - ["dp"] again, resuming at the first width partition the probe did
      not finish.

    @param deadline_s absolute {!Soctam_obs.Clock.now_s} instant; on
      expiry the running engine stops, the rest are skipped, and the
      best incumbent is returned with [optimal = false].
    @param on_event called synchronously with each improving incumbent,
      in publication order — the streaming hook. *)
val solve :
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
    incumbent, uncertified. [deadline_s] is as in {!solve}.

    @param p_max_mw instantaneous power envelope; enforced as
      [Soctam_pack.Pack.effective_budget].
    @param on_event improving packings, streamed as {!event}s with
      engine ["pack-greedy"] / ["pack-exact"]. *)
val solve_pack :
  ?deadline_s:float ->
  ?p_max_mw:float ->
  ?on_event:(event -> unit) ->
  Soctam_core.Problem.t ->
  pack_result
