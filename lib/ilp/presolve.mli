(** MILP presolve: variable merging, constraint propagation and bound
    tightening ahead of the root relaxation.

    The DAC 2000 constraint structure makes three reductions cheap and
    exact:
    - a co-assignment row [x_a - x_b = 0] forces the two columns equal,
      so they merge into one variable (union-find, smallest index is
      the representative);
    - an exclusion row whose other member is fixed at 1 — or whose two
      members merged — propagates to fix the remaining variable at 0;
    - any surviving singleton row tightens its variable's bounds (with
      integral rounding for integer/binary columns) and disappears.

    The passes iterate to a fixpoint, then the surviving rows and
    columns are compacted into a fresh reduced {!Model.t}. A
    postsolve map translates reduced-space solutions (and, through
    {!orig_of_reduced}/{!disposition}, bases and per-variable data such
    as branching priorities) back to the original space. *)

(** What became of an original variable. *)
type disposition =
  | Kept of int  (** Survives as this reduced-model column. *)
  | Fixed of float  (** Eliminated at this value (fixes and aliases). *)

type stats = {
  merged : int;  (** Variables aliased into a representative. *)
  fixed : int;  (** Representatives eliminated at a single value. *)
  rows_removed : int;  (** Constraints deleted by the reductions. *)
  rounds : int;  (** Fixpoint iterations taken. *)
}

type t = {
  reduced : Model.t;
  disposition : disposition array;  (** Indexed by original variable. *)
  orig_of_reduced : int array;
      (** Reduced column -> the original index of its representative. *)
  stats : stats;
}

(** Original variables eliminated by the reduction
    ([merged + fixed]). *)
val eliminated : t -> int

(** [reduce model] computes the reduction. [Error msg] means the
    presolve itself proved the model infeasible (empty variable box or
    an unsatisfiable constant row). The input model is not modified. *)
val reduce : Model.t -> (t, string) result

(** [postsolve t point] lifts a reduced-space point back to the
    original variable space. Objective values need no translation: the
    reduced objective carries the eliminated variables' contribution as
    a constant term. *)
val postsolve : t -> float array -> float array
