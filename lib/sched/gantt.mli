(** ASCII rendering of schedules and power profiles, 72 columns wide. *)

(** [render problem sched] draws one row per first wire ([wire_lo]), in
    wire order, labelled with that wire — for an architecture, one row
    per non-empty bus, in bus order. Each core's test interval is
    filled with a distinguishing letter and labelled with the core name
    where it fits. *)
val render : Soctam_core.Problem.t -> Rect_sched.t -> string

(** [render_profile ?rows profile] draws the power profile as a
    vertical bar chart over time. *)
val render_profile : ?rows:int -> Profile.step list -> string
