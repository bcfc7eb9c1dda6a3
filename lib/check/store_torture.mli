(** Crash-and-corruption torture for {!Soctam_store.Store}.

    A torture case is a deterministic {e fault schedule}: a seeded
    sequence of store operations interleaved with injected damage —
    appends killed mid-write at a chosen byte, truncated segment
    tails, targeted bit flips inside a record's CRC-protected region,
    duplicate keys across segment rotations, compactions with a
    concurrent reader on a second handle, and hard reopens (the crash
    boundary). The model-based oracle tracks every {e acknowledged}
    append and asserts, after every read:

    - {b no frame-check escapes}: a served document is byte-equal to
      some acknowledged document for that key — damage either rolls a
      key back to an older acknowledged value or makes it a miss,
      never garbage;
    - {b no lost acks}: absent injected damage to its frames, a key
      reads back its {e newest} acknowledged value, across reopens,
      rotations and compactions (torn appends were never acknowledged
      and may vanish);
    - {b reader isolation}: a concurrent reader during compaction sees
      some acknowledged value or a miss, never a torn state.

    Schedules shrink by greedy op deletion and persist as replayable
    [.fault] corpus entries, mirroring the {!Corpus} [.soc] format. *)

(** Injectable store bugs ({!Soctam_store.Store.faults}), used to prove
    the oracle catches what it claims to catch. *)
type fault =
  | No_fault
  | Skip_crc  (** serve frames without CRC verification *)
  | Drop_writes  (** acknowledge appends that never hit disk *)
  | Stale_compact  (** compaction keeps the oldest record per key *)
  | Append_past_torn
      (** append past a crashed write's torn tail without repairing it,
          losing the acknowledged frames behind its claimed length *)

val fault_names : string list
val fault_name : fault -> string
val fault_of_string : string -> (fault, string) result

type op =
  | Append of { key : int; value : int }
  | Torn_append of { key : int; value : int; keep_bytes : int }
      (** write only the first [keep_bytes] bytes of the frame: an
          append killed mid-write, never acknowledged *)
  | Flip_bit of { key : int; bit : int }
      (** flip one bit inside the on-disk frame currently serving
          [key] (CRC-protected payload region) *)
  | Truncate_tail of { bytes : int }
      (** chop bytes off the end of the newest segment *)
  | Reopen  (** crash boundary: drop the handle, reopen and recover *)
  | Compact
  | Find of { key : int }  (** read + oracle check *)
  | Concurrent_read_compact of { key : int }
      (** a second handle reads [key] from another thread while this
          handle compacts *)

type schedule = { seed : int; fault : fault; ops : op list }

(** Deterministic schedule from a seed (own generator — identical
    across OCaml versions). *)
val schedule_of_seed : ?ops:int -> fault:fault -> int -> schedule

type failure = {
  op_index : int;  (** 0-based index of the violating op *)
  op : op;
  message : string;
}

(** Runs one schedule in a fresh throwaway directory (small segments to
    force rotation; [fsync] defaults to [false] — there is no real
    crash, so the reopen-survival checks hold either way and the run
    stays fast). Returns the first oracle violation, if any. *)
val run_schedule :
  ?fsync:bool -> fault:fault -> op list -> (unit, failure) result

(** Greedy op-deletion minimization: returns the smallest still-failing
    subsequence (re-running the schedule per candidate). *)
val shrink_schedule : schedule -> schedule

(** [.fault] corpus entries: replayable textual schedules, digest-named
    like the [.soc] corpus. *)
val schedule_to_string : ?note:string -> schedule -> string

val schedule_of_string : string -> (schedule, string) result
val save : dir:string -> ?note:string -> schedule -> string
val load_file : string -> (schedule, string) result

type report = {
  iteration : int;
  case_seed : int;  (** [seed + iteration]; replays this schedule *)
  schedule : schedule;
  failure : failure;
  shrunk : schedule option;
  corpus_path : string option;
}

type outcome = {
  executed : int;  (** schedules run, including any failing one *)
  failure : report option;
}

(** [run ~seed ~budget ()] tortures [budget] seeded schedules and stops
    at the first oracle violation — on the healthy store none is ever
    expected; with [fault] injected the oracle must object. *)
val run :
  ?log:(string -> unit) ->
  ?fault:fault ->
  ?shrink:bool ->
  ?corpus_dir:string ->
  seed:int ->
  budget:int ->
  unit ->
  outcome

(** Re-runs a corpus schedule: [Ok ()] means the once-failing schedule
    now passes (on the healthy store, i.e. the recorded fault is
    ignored and [No_fault] is used unless [use_fault] is set). *)
val replay : ?use_fault:bool -> schedule -> (unit, failure) result
