(** Test access architectures.

    An architecture fixes the width of each test bus and assigns every
    core to exactly one bus. *)

type t = private {
  widths : int array;  (** [widths.(j)] is the width of bus [j] (≥ 1). *)
  assignment : int array;  (** [assignment.(i)] is the bus of core [i]. *)
}

(** [make ~widths ~assignment] validates and builds an architecture:
    every width must be at least 1 and every assignment entry must index
    a bus. Raises [Invalid_argument] otherwise. *)
val make : widths:int array -> assignment:int array -> t

(** Number of buses. *)
val num_buses : t -> int

(** Number of cores. *)
val num_cores : t -> int

(** Sum of bus widths. *)
val total_width : t -> int

(** Cores assigned to [bus], in increasing index order. *)
val bus_members : t -> bus:int -> int list

(** [canonicalize arch] relabels buses so that widths are non-increasing
    (ties broken by smallest member core); useful for comparing solutions
    from different solvers up to bus permutation. *)
val canonicalize : t -> t

(** Structural equality up to bus relabelling. *)
val equivalent : t -> t -> bool
