(** A pool of OCaml 5 domains with a bounded task queue.

    A worker domain is spawned only when a queued task would otherwise
    wait, and lives until {!shutdown}: a caller that never has two tasks
    in flight keeps one worker. Work is distributed by
    self-scheduling: idle workers — and, in {!map}, the submitting
    domain itself, which joins the crew while a batch is in flight —
    pull the next task from a shared queue, so long cells do not stall
    short ones behind a static partition.

    Determinism: {!map} writes result [i] to slot [i], so the output
    order is the input order regardless of which domain ran which task
    or in what order tasks finished. A pool of one domain runs every
    task inline in the caller, in input order — bit-for-bit the
    sequential loop. *)

type t

(** [create ?num_domains ()] builds a pool. [num_domains] counts the
    calling domain: [1] means no domains are ever spawned, [n >= 2]
    allows [n - 1] workers, none spawned yet. Defaults to
    [Domain.recommended_domain_count ()].
    Raises [Invalid_argument] when [num_domains < 1]. *)
val create : ?num_domains:int -> unit -> t

(** Number of domains (including the caller) the pool schedules over. *)
val num_domains : t -> int

(** Worker domains spawned so far: at most [num_domains t - 1]. *)
val workers : t -> int

(** [map t ~f arr] applies [f] to every element, in parallel across the
    pool's domains, and returns the results in input order. If any [f]
    raises, the batch still drains and the first exception (by task
    index) is re-raised in the caller. [f] must be safe to run on any
    domain; tasks must not submit to the same pool (the pool is a batch
    engine, not a nested scheduler).
    Raises [Invalid_argument] if the pool has been shut down. *)
val map : t -> f:('a -> 'b) -> 'a array -> 'b array

(** [run t f] runs [f] on a worker domain, blocking only the calling
    thread, and returns its value or re-raises its exception there. On
    a one-domain pool [f] runs inline. Callers bound the number of
    outstanding calls (the daemon's admission queue does).
    Raises [Invalid_argument] when the pool has been shut down. *)
val run : t -> (unit -> 'a) -> 'a

(** Terminate the worker domains and join them. Idempotent; the pool
    rejects further {!map} and {!run} calls. *)
val shutdown : t -> unit

(** [with_pool ?num_domains f] runs [f] over a fresh pool and shuts it
    down afterwards, whether [f] returns or raises. *)
val with_pool : ?num_domains:int -> (t -> 'a) -> 'a
