(** Branch-and-bound MILP solver on top of {!Simplex}.

    Best-first search on the LP relaxation bound, branching on the most
    fractional integer variable, with plunging: after a node branches,
    the child on the side its value rounds to is processed next, and
    only its sibling waits in the heap; best-first order resumes when a
    plunge reaches a node that does not branch. One
    {!Simplex.Incremental} handle is shared by the whole tree: each node
    carries its parent's optimal basis, and the node relaxation is
    reoptimized from it with the dual simplex, falling back to a cold
    solve when the warm start fails. A plunged child is solved while its
    parent's basis is still live in the handle, so its LP keeps the
    parent's factorization. An initial incumbent (e.g. from a heuristic)
    can be supplied to prune early. When [integral_objective] is set, LP
    bounds are rounded towards the objective's integrality, which
    tightens pruning for models whose optimum value is known to be
    integral (such as makespans of integer task times), and integral
    incumbents are stored at their integer value.

    Every non-root node is first put through domain propagation, from
    the model bounds plus the node's overrides: each row (Le, Ge or Eq,
    coefficients of either sign) tightens its variables from its
    activity bounds, and Integer and Binary bounds are rounded inwards.
    One more row bounds the objective (in minimization space, its
    constant included) by the incumbent: [objective <= incumbent - 1]
    under [integral_objective], [objective <= incumbent] otherwise, and
    no row while there is no incumbent. When a domain empties, the node
    is closed without its LP; it still counts in [nodes] and is counted
    in [propagated_nodes]. A node it does not close gets its LP over the
    propagated box: every integer variable's bounds as propagation
    tightened them, the branching overrides included. (Continuous
    bounds keep their model values.) This is sound because the cutoff
    row removes only points that cannot beat the incumbent. A plunged
    child starts its propagation from its parent's propagated box and
    installs only its own branching bound; any other node starts from
    the model bounds. Float error can only weaken propagation — implied
    bounds carry slack sized by the row's tolerance, and a row is
    violated only beyond [1e-6 (1 + |rhs|)] plus [1e-9] of its
    activity's magnitude. Each node's propagation is capped at 8 visits
    per row and allocates nothing; handing its box to the LP allocates
    one override per tightened integer variable. *)

type stats = {
  nodes : int;  (** Branch-and-bound nodes processed. *)
  lp_pivots : int;  (** Total simplex pivots over all nodes. *)
  max_depth : int;  (** Deepest node expanded. *)
  warm_starts : int;  (** Node LPs answered from the parent basis. *)
  cold_solves : int;  (** Cold two-phase LP solves, fallbacks included. *)
  refactorizations : int;
      (** Basis (re)factorizations in the shared LP handle: cold starts,
          warm restores and the periodic Forrest-Tomlin refresh. *)
  dropped_nodes : int;
      (** Nodes abandoned because their LP hit the pivot budget. Any
          dropped node downgrades the result to [Node_limit]. *)
  propagated_nodes : int;
      (** Nodes closed by domain propagation without their LP; counted
          in [nodes] too. *)
  elapsed_s : float;  (** Wall-clock time spent in [solve]. *)
}

type result =
  | Optimal of { point : float array; objective : float; stats : stats }
  | Infeasible of stats
  | Unbounded of stats
  | Node_limit of {
      best : (float array * float) option;
          (** Best incumbent found before the search was cut short (node
              budget, time budget, or a dropped node). *)
      stats : stats;
    }

(** [solve model] solves the MILP to optimality. A value within 1e-6
    of an integer counts as integral.

    @param node_limit maximum nodes to expand (default 500_000).
    @param time_limit_s wall-clock budget; on expiry the best incumbent is
      returned as [Node_limit] (default: none).
    @param max_lp_pivots per-node LP pivot budget (default 200_000). A
      node whose LP exhausts it is dropped, counted in [dropped_nodes],
      and the final result is reported as [Node_limit] — never as a
      proven [Optimal].
    @param integral_objective round LP bounds to integers when pruning
      (default [false]).
    @param incumbent initial upper bound for minimization (lower bound for
      maximization), typically from a heuristic; pass the objective value.
    @param branch_priority maps a variable index to a priority class;
      branching picks the most fractional variable within the highest
      fractional class (default: all variables in class 0). *)
val solve :
  ?node_limit:int ->
  ?time_limit_s:float ->
  ?max_lp_pivots:int ->
  ?integral_objective:bool ->
  ?incumbent:float ->
  ?branch_priority:(int -> int) ->
  Model.t ->
  result
