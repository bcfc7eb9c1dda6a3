(** The differential fuzzing driver.

    Walks a seed sequence, materializes one instance per seed
    ({!Gen.spec_of_seed}, so [--seed S --budget N] is exactly
    reproducible), runs the {!Oracle} on each and stops at the first
    failure — optionally {!Shrink}ing it and persisting a
    {!Corpus} repro. Everything the caller needs to reproduce the find
    is in the {!failure_report}: the base seed, the per-instance seed,
    the spec and the minimized instance. *)

type failure_report = {
  iteration : int;  (** 0-based index into the budget. *)
  fuzz_seed : int;  (** [seed + iteration]; replays this instance. *)
  spec : Gen.spec;
  failure : Oracle.failure;
  shrunk : Shrink.result option;  (** Present when shrinking was on. *)
  corpus_path : string option;  (** Present when a corpus dir was given. *)
}

type outcome = {
  executed : int;  (** Instances checked (including the failing one). *)
  failure : failure_report option;  (** [None]: the whole budget ran clean. *)
}

(** [run ~seed ~budget ()] fuzzes [budget] instances derived from
    [seed], [seed+1], ... Progress and failure details go through
    [log] (default: silent). [fault] injects an artificial solver bug
    (harness self-test); [shrink] (default [false]) minimizes a
    failure before reporting; [corpus_dir] persists the (possibly
    shrunk) repro. [max_cores] bounds the generated SOCs, and
    [pack_bias] stresses the rectangle-packing family with wider
    budgets, extra co-pairs and power envelopes
    (defaults as {!Gen.spec_of_seed}). [presolve]/[cuts] (default
    [true]) are forwarded to {!Oracle.check}: a batch with them off
    fuzzes the unstrengthened MILP pipeline. *)
val run :
  ?log:(string -> unit) ->
  ?fault:Oracle.fault ->
  ?shrink:bool ->
  ?corpus_dir:string ->
  ?max_cores:int ->
  ?pack_bias:bool ->
  ?presolve:bool ->
  ?cuts:bool ->
  seed:int ->
  budget:int ->
  unit ->
  outcome

(** [replay entry] re-checks a corpus entry against the full oracle
    (no fault): [Ok ()] means the once-failing instance now passes. *)
val replay : Corpus.entry -> (unit, Oracle.failure) result
