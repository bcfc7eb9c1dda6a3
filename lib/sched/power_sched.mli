(** Power-constrained test scheduling (extension experiment A5).

    The DAC 2000 formulation guarantees a power budget {e structurally},
    by forcing high-power pairs onto one bus. An alternative is to keep
    the architecture unconstrained and instead {e stagger} test start
    times so the instantaneous total power never exceeds the budget.
    This module implements greedy list scheduling with such staggering:
    per bus the core order and the wire interval of
    {!Rect_sched.of_architecture} are preserved, but a core's start may
    be delayed until enough power headroom is available. *)

(** [stagger problem arch ~p_max_mw] computes a power-legal schedule for
    the architecture; its makespan includes the inserted idle time.
    [None] when some single core already exceeds the budget (no
    schedule can be legal). *)
val stagger :
  Soctam_core.Problem.t ->
  Soctam_core.Architecture.t ->
  p_max_mw:float ->
  Rect_sched.t option
