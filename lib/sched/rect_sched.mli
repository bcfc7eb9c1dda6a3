(** Test schedules as rectangles: the one schedule type.

    The DAC 2000 architecture fixes bus widths for the whole session. Its
    successor formulations let every core pick its own TAM width, packing
    core tests as rectangles (width × test time) into the W-wire strip.
    Either way each core test holds a wire interval for a time interval.
    This module holds that model: the schedule type (read by {!Profile}
    and {!Gantt}), conversion of fixed-bus architectures into it (so the
    flexible model provably never loses to the paper's model), the
    skyline placement step, the validator, and an area lower bound. The
    packers themselves live in {!Soctam_pack.Pack}.

    Constraint mapping: power co-assignment pairs are serialized (their
    rectangles never overlap in time). Place-and-route exclusion pairs
    are vacuous in this model — every test gets dedicated wires, so no
    two cores ever share a trunk — and are therefore ignored. *)

type placement = {
  core : int;
  width : int;  (** TAM wires given to this core's test. *)
  wire_lo : int;  (** First wire of the contiguous interval. *)
  start : int;
  finish : int;  (** [start + t_core(width)]. *)
}

type t = { placements : placement list; makespan : int }

(** [lower_bound problem] is the classic bound:
    max(total area / W, fastest possible single-core time). *)
val lower_bound : Soctam_core.Problem.t -> int

(** [of_architecture problem arch] converts a fixed-bus architecture into
    the equivalent rectangle schedule (bus j occupies a fixed wire
    interval; members run back-to-back from cycle 0 in
    {!Soctam_core.Architecture.bus_members} order). Placements are
    listed bus by bus, in that order. Its makespan equals the
    architecture's test time. *)
val of_architecture : Soctam_core.Problem.t -> Soctam_core.Architecture.t -> t

(** [place_skyline free ~width ~floor_time] finds, on a skyline
    ([free.(x)] = first idle cycle of wire [x]), the wire offset at
    which a [width]-wide rectangle starting no earlier than [floor_time]
    can begin earliest, and returns [(wire_lo, start)]. Shared with the
    {!Soctam_pack} packers. *)
val place_skyline : int array -> width:int -> floor_time:int -> int * int

(** [co_partners problem] is the adjacency of the power co-assignment
    pairs: entry [i] lists the cores that must never overlap core [i]
    in time. *)
val co_partners : Soctam_core.Problem.t -> int list array

(** [validate problem sched] checks: every core placed exactly once,
    rectangle wire intervals within the strip, durations matching the
    time model, no two rectangles overlapping in wire × time space, no
    co-assignment pair overlapping in time, and the makespan equal to
    the latest finish. *)
val validate : Soctam_core.Problem.t -> t -> (unit, string) result
