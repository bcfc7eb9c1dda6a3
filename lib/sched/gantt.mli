(** ASCII rendering of schedules and power profiles, 72 columns wide. *)

(** [render problem sched] draws one row per bus; each core's test
    interval is filled with a distinguishing letter and labelled with
    the core name where it fits. *)
val render : Soctam_core.Problem.t -> Schedule.t -> string

(** [render_profile ?rows profile] draws the power profile as a
    vertical bar chart over time. *)
val render_profile : ?rows:int -> Profile.step list -> string
