(** Wirelength-aware architecture selection (extension).

    The optimal test time usually admits many optimal architectures; the
    place-and-route-aware flow should pick the one that is cheapest to
    route. This module optimizes lexicographically: first the test time
    (provably optimal, via {!Soctam_core.Exact}), then the estimated TAM
    trunk wirelength among time-optimal architectures. *)

type result = {
  architecture : Soctam_core.Architecture.t;
  test_time : int;  (** Provably optimal. *)
  trunk_mm : float;  (** Minimum trunk wirelength among enumerated optima. *)
  optima_enumerated : int;
      (** Time-optimal architectures considered; when the enumeration cap
          was hit this is a lower bound on their number. *)
  capped : bool;  (** [true] when the enumeration cap was reached. *)
}

(** [solve problem floorplan] enumerates time-optimal architectures (up
    to 20_000) and returns the one with the shortest estimated trunk
    wirelength. [None] when the instance is infeasible. *)
val solve :
  Soctam_core.Problem.t ->
  Soctam_layout.Floorplan.t ->
  result option
