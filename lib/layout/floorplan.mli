(** Deterministic shelf floorplanner.

    The DAC 2000 formulation consumes a placement only through pairwise
    core distances; any fixed placement suffices. This module packs cores
    into rows (tallest-first), sizes the die to the resulting extents and
    exposes Manhattan centre-to-centre distances. *)

type t

(** [place soc] computes a placement with a 0.5 mm margin around every
    core and a row width chosen to make the die roughly square. *)
val place : Soctam_soc.Soc.t -> t

(** Die dimensions (width, height) in millimetres. *)
val die_mm : t -> float * float

(** Centre of core [i]. *)
val position : t -> int -> Geom.point

(** Number of placed cores. *)
val num_cores : t -> int

(** Manhattan distance between the centres of cores [i] and [j]. *)
val distance : t -> int -> int -> float

(** [validate fp] is [Ok ()] when no two cores overlap and all lie inside
    the die; [Error msg] names the first violation. *)
val validate : t -> (unit, string) result

(** ASCII sketch of the floorplan, 72 columns wide (for examples and
    reports). *)
val sketch : t -> Soctam_soc.Soc.t -> string
