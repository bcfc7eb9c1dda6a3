(** Fixed-size log-bucketed latency histograms (HDR-style).

    The service's previous latency telemetry was a 1024-sample ring: at
    load-generator rates it held ~10 ms of history, so "p99" described
    the last instant, not the run. A histogram has no window — every
    sample since the last {!clear} contributes — and a log-bucketed one
    does it in constant space with bounded {e relative} error, which is
    the error that matters across six decades of latency.

    {2 Bucket geometry}

    Each binary octave [[2^(e-1), 2^e)] is split into
    {!sub_buckets}[ = 64] equal-width linear sub-buckets. A bucket's
    width is therefore [2^(e-1)/64], and reporting its midpoint is off
    by at most half a width: a worst-case relative error of
    [1/128 < 0.8%] — comfortably inside the ~1% design target and the
    2% acceptance bound asserted in [test/test_telemetry.ml].
    {!num_buckets}[ = 4096] buckets (64 octaves) span [~1e-6] to
    [~8.8e12]; anything outside clamps to the end buckets, and
    non-positive or NaN samples clamp to bucket 0. Count, sum, min and
    max are tracked exactly regardless of clamping, and quantiles are
    clamped into [[min, max]], so small histograms stay exact at the
    extremes.

    {2 Concurrency}

    Recording is lock-free and allocation-free: each domain lazily
    registers a private shard ([Domain.DLS]) and bumps plain [int]
    array cells. The increment sequence has no allocation point or
    function call between load and store, so systhreads sharing a
    domain cannot interleave inside it — the same argument {!Obs}'s
    counter cells rely on. {!snapshot} merges all shards under the
    registry mutex; a snapshot taken while writers are active is a
    consistent-enough view (each cell read is atomic; totals may trail
    in-flight samples by a few). *)

type t

(** Number of buckets in every histogram ([4096]). *)
val num_buckets : int

(** Linear sub-buckets per binary octave ([64]). *)
val sub_buckets : int

val create : unit -> t

(** [record t v] adds one sample. Lock-free; safe from any domain or
    thread. *)
val record : t -> float -> unit

(** [index_of v] is the bucket [v] lands in — exposed for tests and for
    building snapshots from offline sample arrays. *)
val index_of : float -> int

(** [bounds i] is the [(lo, hi)] value range of bucket [i]; samples in
    the bucket are reported as the midpoint. Raises [Invalid_argument]
    when [i] is out of range. *)
val bounds : int -> float * float

(** Immutable merged view of a histogram at one instant. *)
type snapshot = {
  counts : int array;  (** Per-bucket sample counts, length {!num_buckets}. *)
  count : int;  (** Total samples = sum of [counts]. *)
  sum : float;  (** Exact sum of recorded values. *)
  min : float;  (** Exact minimum; [+infinity] when empty. *)
  max : float;  (** Exact maximum; [neg_infinity] when empty. *)
}

val empty : snapshot

(** [snapshot t] merges every domain's shard. *)
val snapshot : t -> snapshot

(** [merge a b] combines two snapshots as if their samples had been
    recorded into one histogram. Associative and commutative up to
    float-sum rounding in [sum]. *)
val merge : snapshot -> snapshot -> snapshot

(** [of_samples a] builds a snapshot offline — how the bench and
    [tamopt load] turn recorded latency arrays into p999s. *)
val of_samples : float array -> snapshot

(** [quantile s q] for [q] in [[0, 1]] follows the same nearest-rank
    convention as [Metrics.percentile] (rank [ceil (q * count)]),
    returning the midpoint of the bucket holding that rank, clamped
    into [[s.min, s.max]]. [nan] when the snapshot is empty. *)
val quantile : snapshot -> float -> float

(** [summary_json s] is the latency summary every report prints:
    [{count, p50_ms, p95_ms, p99_ms, p999_ms}]. *)
val summary_json : snapshot -> Json.t

(** [clear t] zeroes every shard (under the registry mutex). Samples
    recorded concurrently with a clear may land on either side. *)
val clear : t -> unit
