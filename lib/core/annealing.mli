(** Simulated-annealing baseline.

    A second, stronger heuristic comparator for the exact solvers:
    anneals over (width vector, cluster assignment) states with cluster
    moves, cluster swaps and unit width transfers, accepting uphill moves
    with the Metropolis rule under a geometric cooling schedule. Fully
    deterministic for a given [seed]. Infeasible neighbours (violating an
    exclusion constraint) are never entered; co-assignment constraints
    are honoured by construction (annealing runs on clusters). *)

type outcome = { architecture : Architecture.t; test_time : int }

(** [solve ?seed ?iterations problem] runs the annealer from the greedy
    solution (or a trivial feasible one). Defaults: seed 1, 20_000
    iterations; the initial temperature is 5% of the initial makespan
    and the cooling factor 0.999. [None] when no feasible
    starting point could be constructed. [should_stop] is polled once
    per iteration; on [true] the loop exits early and the best solution
    found so far is returned. [report] fires on every strictly
    improving accepted state, in discovery order — racing callers
    publish incumbents through it. With the default hooks the result is
    unchanged and deterministic in [seed]. *)
val solve :
  ?seed:int ->
  ?iterations:int ->
  ?should_stop:(unit -> bool) ->
  ?report:(outcome -> unit) ->
  Problem.t ->
  outcome option
