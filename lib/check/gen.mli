(** Structured random instance generation — the single definition of a
    "random SOC instance".

    Both randomized test layers ride on this module: the qcheck suites
    ([test/gen.ml] wraps {!spec_of_seed} in a [QCheck.arbitrary]) and
    the differential fuzzer ([tamopt fuzz] walks seeds directly). A
    {!spec} is the compact, reproducible description — everything is
    derived deterministically from integers, so a failure report that
    prints the spec {e is} the repro. An {!instance} is the
    materialized form the {!Oracle} checks and the {!Shrink} minimizer
    edits: once the shrinker starts dropping cores and truncating
    staircases the instance no longer corresponds to any seed, which is
    why the two representations are kept distinct. *)

(** A materialized instance: a concrete SOC plus the run parameters.
    Unlike a {!spec} it can describe SOCs that no seed generates —
    the {!Shrink} minimizer and the {!Corpus} files live here.
    (Declared before {!spec} so that the shared [num_buses] and
    [total_width] field names resolve to {!spec} in unannotated client
    code, exactly as they did before this type existed.) *)
type instance = {
  soc : Soctam_soc.Soc.t;
  num_buses : int;
  total_width : int;
  excl : (int * int) list;  (** Exclusion pairs (raw, in core-index range). *)
  co : (int * int) list;  (** Co-assignment pairs (raw). *)
  p_max : float option;
      (** Instantaneous power envelope in mW, for the pack-family
          oracle property; [None] leaves packing unconstrained. *)
}

(** A reproducible instance description. [seed] is the
    {!Soctam_soc.Benchmarks.random} SOC seed; constraint pairs are raw
    (unnormalized, possibly duplicated) — {!Soctam_core.Problem.make}
    normalizes them. *)
type spec = {
  seed : int;
  num_cores : int;
  num_buses : int;
  total_width : int;
  raw_excl : (int * int) list;
  raw_co : (int * int) list;
  p_max_pct : int option;
      (** Power envelope as a percentage between the hungriest single
          core (0) and the whole-SOC sum (100); materialized to mW by
          {!instance_of_spec}. Only [Some] under [~pack_bias:true]. *)
}

(** [spec_of_seed ~seed ()] derives a spec deterministically: equal
    seeds yield equal specs, on every run and every machine. Cores
    default to the \[2, 6\] range of the historical qcheck generator
    (brute-force cross-checks stay cheap); widen with [max_cores] for
    deeper fuzzing. Buses are drawn from \[1, 3\] and the width budget
    from \[buses, buses + 8\]. [~pack_bias:true] stresses the
    rectangle-packing family: up to 8 extra wires of width budget, up
    to 2 extra co-assignment pairs and an instantaneous power envelope
    ([p_max_pct] in \[10, 90\]); the unbiased draws are unchanged, so
    seed -> spec under the default is byte-identical to before the knob
    existed. Raises [Invalid_argument] when [max_cores < 2]. *)
val spec_of_seed :
  ?max_cores:int -> ?pack_bias:bool -> seed:int -> unit -> spec

(** One-line rendering, e.g. [{seed=17 n=4 nb=2 W=6 excl=[0,3] co=[]}]. *)
val spec_print : spec -> string

(** The spec's SOC ({!Soctam_soc.Benchmarks.random} under [spec.seed]). *)
val soc_of_spec : spec -> Soctam_soc.Soc.t

(** [problem_of_spec ?constrained spec] builds the problem instance;
    [~constrained:false] drops the constraint pairs (used by suites that
    need guaranteed-feasible instances). *)
val problem_of_spec : ?constrained:bool -> spec -> Soctam_core.Problem.t

val instance_of_spec : spec -> instance

(** Builds the {!Soctam_core.Problem.t}; raises [Invalid_argument] on an
    invalid instance (out-of-range pairs, width < buses). *)
val problem_of_instance : instance -> Soctam_core.Problem.t

(** One-line rendering with SOC name and sizes. *)
val instance_print : instance -> string
