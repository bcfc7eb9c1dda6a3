(** The socket front end of [tamoptd].

    {!serve} binds, accepts, and runs one systhread per connection;
    each thread reads NDJSON lines and answers through
    {!Service.handle_line} (which parks it while a pool worker domain
    does the solving). The accept loop polls the shutdown flag a few
    times a second, so a [{"op":"shutdown"}] request makes {!serve}
    stop accepting, {!Service.drain} the in-flight work, hang up the
    remaining connections and return — a clean exit the CI smoke test
    asserts on.

    SIGPIPE is ignored for the whole process (a client hanging up
    mid-reply must not kill the daemon). A Unix-domain socket is bound
    and listening under a temporary name in the same directory, the
    path plus [.<pid>], before it is renamed to its path (replacing any
    stale file there), so a client that connects as soon as the path
    exists is never refused. The temporary name must fit the
    platform's socket-path limit too. The path is unlinked after
    shutdown. *)

(** [serve ~service addr] blocks until a shutdown request is served.
    The listen backlog is 64. Raises [Unix.Unix_error] when the address
    cannot be bound. [on_bound] (for tests and scripts) runs once the
    socket is listening, e.g. to signal readiness. *)
val serve :
  ?on_bound:(unit -> unit) -> service:Service.t -> Addr.t -> unit
