(** Optimal core-to-bus assignment for fixed bus widths.

    Given a problem instance and a concrete width vector, this module
    finds an assignment minimizing the system test time while honouring
    all exclusion and co-assignment constraints.

    Two exact engines are used:
    - for two buses and at most {!dp_cluster_limit} clusters, an
      imperative subset-DP over bitmask-indexed tables;
    - otherwise, depth-first branch and bound over clusters (largest
      first) with a work-based lower bound and empty-bus symmetry
      pruning.

    Both return the same optimum; the tests cross-check them against a
    brute-force reference. *)

type outcome = {
  assignment : int array;  (** Per-core bus assignment. *)
  test_time : int;
}

type stats = {
  nodes : int;  (** Search nodes visited (masks, for the two-bus DP). *)
  complete : bool;
      (** [false] when [node_budget] ran out first: the outcome is then
          the best assignment found so far, not a proof of optimality. *)
}

(** Maximum cluster count for the bitmask DP fast path (20). *)
val dp_cluster_limit : int

(** [solve problem ~widths] is the optimal assignment, or [None] when
    the constraints are unsatisfiable with this bus count.
    @param upper_bound prune all solutions with time ≥ this value
      (exclusive); the result is [None] if no strictly better assignment
      exists. Raises [Invalid_argument] when [Array.length widths] differs
      from the instance's bus count. *)
val solve :
  ?upper_bound:int -> Problem.t -> widths:int array -> outcome option

(** As {!solve}, also reporting search statistics.
    @param node_budget visit at most this many nodes (default
      unlimited). The two-bus DP always scans [2^clusters] masks, so it
      declines up front, with no nodes spent, when they exceed the
      budget. The budget is a plain argument, so concurrent searches on
      different domains never share a counter. *)
val solve_with_stats :
  ?upper_bound:int ->
  ?node_budget:int ->
  Problem.t ->
  widths:int array ->
  outcome option * stats

(** Exhaustive reference (O(num_buses^clusters)); only for tests on tiny
    instances. *)
val brute_force : Problem.t -> widths:int array -> outcome option
