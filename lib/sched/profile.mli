(** Instantaneous power profiles of test schedules: of fixed-bus
    architectures through {!Rect_sched.of_architecture}, of packings
    directly. *)

type step = {
  from_cycle : int;
  to_cycle : int;  (** Half-open interval. *)
  power_mw : float;  (** Total power dissipated during the interval. *)
}

(** [of_schedule problem sched] is the piecewise-constant total power
    over time, as maximal constant steps in increasing time order
    (idle gaps appear as 0-power steps). *)
val of_schedule : Soctam_core.Problem.t -> Rect_sched.t -> step list

(** Peak of the profile (0 for an empty schedule). *)
val peak : step list -> float

(** [respects ~p_max_mw profile] is [true] when the profile never
    exceeds the budget. *)
val respects : p_max_mw:float -> step list -> bool

(** Energy of the profile in mW·cycles. *)
val energy : step list -> float
