(** Greedy instance minimizer for failing oracle properties.

    Given an instance on which [check] reports a failure of [property],
    the shrinker repeatedly tries size-reducing edits — drop a core
    (constraint pairs relabelled or discarded along), collapse the
    width budget, remove a bus, remove a constraint pair, truncate a
    core's test-time staircase (halve its patterns or flip-flops, or
    demote it to combinational) — and keeps any edit after which the
    {e same} property is still the first failure. Matching on the
    property name keeps the minimized repro about the original bug
    rather than sliding onto an unrelated failure mid-shrink.

    Every accepted edit strictly reduces a finite size measure, so the
    loop terminates; a budget of 400 oracle calls additionally bounds
    the work on adversarial cases. Large edits are tried before small
    ones (drop a whole core before shaving one wire), which is what
    gets a 6-core instance down to the 2–3 cores a human can eyeball. *)

type result = {
  instance : Gen.instance;  (** The minimized instance (still failing). *)
  oracle_calls : int;  (** Oracle invocations spent shrinking. *)
  steps : int;  (** Accepted edits. *)
}

(** [shrink ~check ~property inst] minimizes [inst]. [check] is the
    oracle closure (with any injected fault already applied); [property]
    is the failure to preserve. Returns [inst] unchanged when no edit
    helps. *)
val shrink :
  check:(Gen.instance -> (unit, Oracle.failure) Stdlib.result) ->
  property:string ->
  Gen.instance ->
  result
