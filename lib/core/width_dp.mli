(** Optimal width partition for a fixed core assignment (problem P2).

    With the core-to-bus assignment frozen, the remaining question is how
    to split the wire budget: choose [w_j ≥ 1] with [Σ w_j = W]
    minimizing [max_j load_j(w_j)], where
    [load_j(w) = Σ_{i on bus j} t_i(w)] is non-increasing in [w]. This is
    solved exactly by dynamic programming over (bus prefix, wires used) —
    an O(NB·W²) imperative table — one of the polynomial sub-problems of
    the VTS/DAC 2000 formulation series. *)

type outcome = {
  widths : int array;  (** Optimal widths, [Σ = total_width]. *)
  test_time : int;
}

(** [solve problem ~assignment] computes the optimal width vector for the
    given assignment. The assignment must map every core to a bus in
    range (constraints do not matter here: they only restrict
    assignments, which are fixed). Raises [Invalid_argument] on a
    malformed assignment. *)
val solve : Problem.t -> assignment:int array -> outcome

(** [alternate problem ~start] alternates the two exact
    sub-problem solvers — optimal widths for the current assignment
    ({!solve}), then optimal assignment for the current widths
    ({!Dp_assign.solve}) — until a fixpoint, starting from architecture
    [start]. The result never has a larger test time than [start].
    [None] if the assignment step ever becomes infeasible (cannot happen
    when [start] satisfies the instance's constraints). At most 16
    rounds run. *)
val alternate :
  Problem.t ->
  start:Architecture.t ->
  (Architecture.t * int) option
