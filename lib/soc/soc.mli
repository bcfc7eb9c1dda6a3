(** A system-on-chip: a named collection of embedded cores.

    Core indices (0-based positions in the SOC) are the identifiers used
    throughout the optimization libraries. *)

type t

(** [make ~name cores] builds an SOC. Raises [Invalid_argument] on an
    empty core list or duplicate core names. *)
val make : name:string -> Core_def.t list -> t

(** SOC name. *)
val name : t -> string

(** Number of cores. *)
val num_cores : t -> int

(** [core soc i] is the [i]-th core. Raises [Invalid_argument] when [i]
    is out of range. *)
val core : t -> int -> Core_def.t

(** All cores in index order (fresh array). *)
val cores : t -> Core_def.t array

(** Structural equality: same name and the same cores in the same
    order. Float fields compare with [(=)], so two SOCs built from the
    same data are equal but NaN-valued fields never are — fine for the
    determinism and round-trip checks this backs. *)
val equal : t -> t -> bool

(** [index_of soc name] is the index of the core called [name].
    @raise Not_found when absent. *)
val index_of : t -> string -> int

(** Sum of core areas in square millimetres. *)
val total_area_mm2 : t -> float

(** [fold f init soc] folds [f acc index core] over all cores. *)
val fold : ('a -> int -> Core_def.t -> 'a) -> 'a -> t -> 'a
