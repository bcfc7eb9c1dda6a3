(** Bounded-variable revised primal/dual simplex.

    The LP relaxations solved here are small (tens of variables, tens of
    constraints) but are solved thousands of times per branch-and-bound
    run. The solver keeps the constraint matrix as sparse scaled columns
    and carries the basis as an LU factorization (partial pivoting)
    maintained by Forrest-Tomlin updates, with a periodic
    refactorization from pristine data — so numerical drift is bounded
    by the refactorization period rather than by the length of the
    branch-and-bound run.

    The kernels are sparsity-aware without changing the arithmetic: L
    is held as per-column lists of its nonzero multipliers, the U and
    U{^T} solves sum only over positions whose computed value is
    nonzero, the factorization's elimination visits only the nonzero
    rows of the pivot column and the nonzero columns of the pivot row,
    and the Forrest-Tomlin row etas live in preallocated per-update
    arrays (no allocation per pivot). Invariant: every skipped term has
    an exact [0.0] factor, and the remaining terms are summed in the
    dense loops' order, so every nonzero value is bit-for-bit the dense
    result — pivots, node counts and answers are those of the dense
    kernels. At most the sign of an exact zero can differ, and no
    comparison, ratio or division in the solver reads it. Variable bounds are handled natively: a
    nonbasic variable sits at its lower or upper bound, so finite upper
    bounds cost nothing — no explicit [x <= u] rows are added.

    Reduced costs are recomputed from scratch (one BTRAN of the basic
    costs) at every pricing pass, so no cost-row drift survives a
    solve boundary. A warm start from a restored snapshot refactorizes
    its basis instead of pivoting toward it; a warm start from the
    live basis keeps the factorization, Forrest-Tomlin updates and
    all. Drift in the factors and basic values is bounded by the
    refactorization period, and no verdict is trusted on drifted
    values: before the dual simplex declares a node infeasible, and
    when a post-solve audit finds a basic value out of bounds, the
    basis is refactorized from pristine columns and its basic values
    recomputed, and only a verdict that survives this refresh stands.

    Integrality information in the model is ignored: this module solves
    the continuous relaxation. Variables must have finite lower bounds
    (the model enforces this).

    Determinism: identical inputs take identical pivot sequences
    (Dantzig pricing with Bland's anti-cycling fallback in the primal,
    dual steepest-edge row selection, index-based tie breaks throughout,
    ties in the LU pivot search going to the lowest row), which the
    parallel sweep relies on. *)

type result =
  | Optimal of { point : float array; objective : float; pivots : int }
      (** Optimal solution in the original variable space. *)
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget was exhausted (pathological instance). *)

(** Incremental solver handle for branch and bound: the scaled columns
    are built once from the model, each node solve applies its bound
    overrides as O(1) in-place bound updates, and a child node can be
    reoptimized from its parent's optimal basis with the dual simplex
    (a bound change leaves the parent basis dual-feasible). When warm
    restart fails — the snapshot basis is singular, or the dual would
    need a dubious pivot — the solve silently falls back to a cold
    two-phase primal start, so callers always get a full answer.

    The handle remembers the snapshot {!basis} last returned until the
    next solve. A warm solve from that snapshot finds its basis still
    live: it keeps the factorization and only recomputes the basic
    values under the new bounds. Branch and bound gets this on every
    child it solves right after its parent. *)
module Incremental : sig
  type t
  (** Mutable solver state; not thread-safe. Use one handle per
      branch-and-bound run (per domain). *)

  type basis
  (** Opaque basis snapshot: which columns are basic plus which bound
      each nonbasic column occupies. Cheap (two small arrays). *)

  val create : ?max_pivots:int -> Model.t -> t
  (** Build the equilibrated sparse-column data for [model].
      [max_pivots] (default [200_000]) bounds the pivots of each
      individual {!solve} call. *)

  val solve :
    ?basis:basis -> ?bound_overrides:(int * float * float) list -> t -> result
  (** Solve the LP relaxation with [bound_overrides] (entries
      [(var, lb, ub)]) tightening the model bounds. With [?basis],
      attempt a warm start from that snapshot (dual simplex then primal
      polish); without it, or when the warm path fails, run the cold
      two-phase primal. A snapshot that is the one {!basis} returned
      since the last solve is still the live basis, and its
      factorization is reused ({!reuses}); any other is refactorized
      from pristine columns. *)

  val basis : t -> basis
  (** Snapshot the current basis; valid after an [Optimal] solve and
      reusable across later solves of the same handle. The handle
      remembers it as live until its next solve. *)

  val warm_starts : t -> int
  (** Number of solves answered via the warm-start path. *)

  val reuses : t -> int
  (** Number of warm starts that kept the live factorization (see
      {!solve}). *)

  val cold_solves : t -> int
  (** Number of cold two-phase solves (including fallbacks). *)

  val refactorizations : t -> int
  (** Number of basis (re)factorizations performed over the handle's
      lifetime: cold starts, warm restores, the periodic refresh every
      64 Forrest-Tomlin updates, recovery from failed updates, and the
      refreshes before a verdict. *)
end

val solve :
  ?bound_overrides:(int * float * float) list ->
  ?max_pivots:int ->
  Model.t ->
  result
(** One-shot solve: [Incremental.create] plus a cold solve. Default
    pivot budget is 200_000. *)
