(** Embedded core descriptions.

    A core is characterized by its test interface (functional I/O and
    internal scan structure), its precomputed test set size, a peak test
    power rating and a physical footprint used by the floorplanner. *)

(** Internal sequential/scan structure of a core. *)
type scan_kind =
  | Combinational  (** No state elements; pure pattern application. *)
  | Scan of { flip_flops : int; chains : int }
      (** Full-scan core: [flip_flops] scan cells pre-stitched into
          [chains] internal scan chains (fixed by the core provider). *)

type t = {
  name : string;
  inputs : int;  (** Functional input terminals. *)
  outputs : int;  (** Functional output terminals. *)
  scan : scan_kind;
  patterns : int;  (** Test patterns in the precomputed test set. *)
  power_mw : float;  (** Peak power dissipated while this core is tested. *)
  dim_mm : float * float;  (** Footprint (width, height) in millimetres. *)
}

(** [make ~name ~inputs ~outputs ~scan ~patterns ~power_mw ~dim_mm] builds
    a core description, validating that all counts are non-negative, that
    [patterns >= 1], and that scan chains are in [1, flip_flops] when
    present. Raises [Invalid_argument] otherwise. *)
val make :
  name:string ->
  inputs:int ->
  outputs:int ->
  scan:scan_kind ->
  patterns:int ->
  power_mw:float ->
  dim_mm:float * float ->
  t

(** Scan flip-flops of the core (0 for combinational cores). *)
val flip_flops : t -> int

(** Internal scan chains (0 for combinational cores). *)
val chains : t -> int

(** Length of the longest internal scan chain,
    [ceil (flip_flops / chains)] (0 for combinational cores). *)
val longest_chain : t -> int

(** Core area in square millimetres. *)
val area_mm2 : t -> float
