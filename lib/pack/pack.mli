(** Rectangle-packing solver family.

    The successor formulations of the DAC 2000 paper (arXiv 1008.4446,
    1008.3320) recast wrapper/TAM co-optimization as 2D strip packing:
    each core test is a (width × time) rectangle to place on a strip of
    [total_width] wires, minimizing the makespan. The model subsumes the
    fixed-bus partition model — any architecture converts into an
    equal-makespan packing ({!Soctam_sched.Rect_sched.of_architecture})
    — and yields an explicit schedule rather than just an assignment: a
    packing is a {!Soctam_sched.Rect_sched.t}, the one schedule type,
    which {!Soctam_sched.Profile} and {!Soctam_sched.Gantt} read
    directly.

    This module provides the full family:

    - {!candidates}: Pareto staircase breakpoints of [t_i(w)], the only
      widths worth considering for a core's rectangle;
    - {!greedy}: the papers' best-fit and diagonal-length-ordered
      skyline heuristics, with power co-assignment pairs serialized in
      time and an optional instantaneous power envelope enforced by
      delaying rectangles past finish events;
    - {!exact}: a small-instance branch-and-bound over (core, width,
      position) choices at normal positions, pruned by area / critical
      core / energy / co-pair lower bounds, a transposition table and a
      shared incumbent; it reports whether the search ran to exhaustion
      (the optimality certificate).

    Exclusion (place-and-route) pairs are vacuous here — every test
    owns dedicated wires — so a packing always exists, even for
    instances whose partition model is infeasible. *)

module Rect_sched = Soctam_sched.Rect_sched

(** One admissible rectangle shape for a core. *)
type candidate = { width : int; time : int }

(** [candidates problem ~core] is the Pareto staircase of the core:
    width/time pairs in increasing width and strictly decreasing time,
    keeping only breakpoint widths ([t(w) < t(w-1)]). Never empty —
    width 1 is always present. *)
val candidates : Soctam_core.Problem.t -> core:int -> candidate list

(** [effective_budget problem ~p_max_mw] is the envelope actually
    enforced: [max p_max_mw (max_i power_i)]. A single test cannot be
    split, so any envelope below the hungriest core would make every
    instance infeasible; raising the budget to that floor keeps full
    serialization always feasible. *)
val effective_budget : Soctam_core.Problem.t -> p_max_mw:float -> float

(** [lower_bound ?p_max_mw problem] strengthens
    {!Rect_sched.lower_bound} with the co-pair serialization bound
    (each pair's tests are disjoint in time) and, when an envelope is
    given, the energy bound [⌈Σ_i min-energy_i / budget⌉]. *)
val lower_bound : ?p_max_mw:float -> Soctam_core.Problem.t -> int

(** [validate ?p_max_mw problem packing] is {!Rect_sched.validate}
    plus, when [p_max_mw] is given, a check that the peak of the
    packing's {!Soctam_sched.Profile} stays within
    {!effective_budget}. *)
val validate :
  ?p_max_mw:float ->
  Soctam_core.Problem.t ->
  Rect_sched.t ->
  (unit, string) result

(** [greedy ?p_max_mw ?seed_archs problem] runs the heuristic
    portfolio — {diagonal-length, longest-time, largest-area} orders ×
    {best-fit over all candidate widths, fixed best-area width}
    placement — plus the conversions of any [seed_archs] that respect
    the envelope, and returns the best packing found. Deterministic.
    Always succeeds: the first policy runs even under an immediate
    [should_stop]. [report] fires on each strictly improving packing,
    in portfolio order — the race's streaming hook. *)
val greedy :
  ?p_max_mw:float ->
  ?seed_archs:Soctam_core.Architecture.t list ->
  ?should_stop:(unit -> bool) ->
  ?report:(Rect_sched.t -> unit) ->
  Soctam_core.Problem.t ->
  Rect_sched.t

(** Outcome of {!exact} / {!solve}. [optimal] is the certificate: the
    search ran to exhaustion (no node-budget blow, no [should_stop]),
    so no packing beats [packing] (or, when [packing = None], the
    [upper_bound] it was seeded with). *)
type result = {
  packing : Rect_sched.t option;
  optimal : bool;
  nodes : int;
  lower_bound : int;
}

(** [exact ?p_max_mw ?node_budget ?upper_bound ?on_incumbent
    ?should_stop problem] searches placements exhaustively at normal
    positions: start times in {0} ∪ {finish events}, wire offsets in
    {0} ∪ {right edges}. [upper_bound] is polled for the shared
    incumbent makespan; only strictly better packings are kept and
    reported via [on_incumbent]. [packing = None] means nothing beat
    [upper_bound] (with the certificate, that proves the bound
    optimal). *)
val exact :
  ?p_max_mw:float ->
  ?node_budget:int ->
  ?upper_bound:(unit -> int option) ->
  ?on_incumbent:(Rect_sched.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  Soctam_core.Problem.t ->
  result

(** [solve ?p_max_mw ?node_budget ?seed_archs problem] seeds {!exact}
    with the {!greedy} portfolio incumbent and always returns a
    packing: the exact optimum when the search exhausted, the best
    incumbent otherwise. *)
val solve :
  ?p_max_mw:float ->
  ?node_budget:int ->
  ?seed_archs:Soctam_core.Architecture.t list ->
  Soctam_core.Problem.t ->
  result
