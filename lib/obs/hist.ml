let sub_buckets = 64
let sub_log2 = 6

(* Octaves cover exponents (e_min, e_min + octaves]; frexp exponents at
   or below e_min clamp to bucket 0, above the top clamp to the last
   bucket. e_min = -20 puts the low edge near 1e-6 — microsecond
   latencies measured in ms still resolve. *)
let e_min = -20
let octaves = 64
let num_buckets = octaves * sub_buckets

let index_of v =
  if not (v > 0.0) then 0 (* zero, negatives and NaN clamp low *)
  else begin
    let m, e = Float.frexp v in
    if e <= e_min then 0
    else if e > e_min + octaves then num_buckets - 1
    else
      (* m in [0.5, 1): m*128 in [64, 128), truncation = floor. *)
      (((e - e_min - 1) lsl sub_log2) lor (int_of_float (m *. 128.0) - 64))
  end

let bounds i =
  if i < 0 || i >= num_buckets then invalid_arg "Hist.bounds";
  let e = e_min + 1 + (i lsr sub_log2) in
  let s = i land (sub_buckets - 1) in
  let edge k = Float.ldexp (1.0 +. (float_of_int k /. 64.0)) (e - 1) in
  (edge s, edge (s + 1))

let midpoint i =
  let lo, hi = bounds i in
  0.5 *. (lo +. hi)

(* One domain's shard. Only the owning domain writes [buckets] and
   [scalars]; [scalars] is [|sum; min; max|] kept in an unboxed float
   array so [record] never allocates. *)
type shard = { buckets : int array; scalars : float array }

type t = {
  mutex : Mutex.t;
  mutable shards : shard list;
  key : shard Domain.DLS.key;
}

let fresh_shard () =
  { buckets = Array.make num_buckets 0;
    scalars = [| 0.0; infinity; neg_infinity |] }

let create () =
  let rec t =
    lazy
      (let key =
         Domain.DLS.new_key (fun () ->
             let h = Lazy.force t in
             let shard = fresh_shard () in
             Mutex.lock h.mutex;
             h.shards <- shard :: h.shards;
             Mutex.unlock h.mutex;
             shard)
       in
       { mutex = Mutex.create (); shards = []; key })
  in
  Lazy.force t

let record t v =
  let shard = Domain.DLS.get t.key in
  let i = index_of v in
  (* No allocation or call between these loads and stores: systhreads
     on this domain cannot be preempted mid-update. *)
  shard.buckets.(i) <- shard.buckets.(i) + 1;
  shard.scalars.(0) <- shard.scalars.(0) +. v;
  if v < shard.scalars.(1) then shard.scalars.(1) <- v;
  if v > shard.scalars.(2) then shard.scalars.(2) <- v

type snapshot = {
  counts : int array;
  count : int;
  sum : float;
  min : float;
  max : float;
}

let empty =
  { counts = Array.make num_buckets 0;
    count = 0;
    sum = 0.0;
    min = infinity;
    max = neg_infinity }

let snapshot t =
  let counts = Array.make num_buckets 0 in
  Mutex.lock t.mutex;
  let shards = t.shards in
  Mutex.unlock t.mutex;
  let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  List.iter
    (fun shard ->
      for i = 0 to num_buckets - 1 do
        counts.(i) <- counts.(i) + shard.buckets.(i)
      done;
      sum := !sum +. shard.scalars.(0);
      if shard.scalars.(1) < !mn then mn := shard.scalars.(1);
      if shard.scalars.(2) > !mx then mx := shard.scalars.(2))
    shards;
  let count = Array.fold_left ( + ) 0 counts in
  { counts; count; sum = !sum; min = !mn; max = !mx }

let merge a b =
  let counts = Array.make num_buckets 0 in
  for i = 0 to num_buckets - 1 do
    counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  { counts;
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    min = Float.min a.min b.min;
    max = Float.max a.max b.max }

let of_samples samples =
  let counts = Array.make num_buckets 0 in
  let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  Array.iter
    (fun v ->
      let i = index_of v in
      counts.(i) <- counts.(i) + 1;
      sum := !sum +. v;
      if v < !mn then mn := v;
      if v > !mx then mx := v)
    samples;
  { counts;
    count = Array.length samples;
    sum = !sum;
    min = !mn;
    max = !mx }

let quantile s q =
  if s.count = 0 then nan
  else begin
    (* Nearest-rank, matching Metrics.percentile: the rank-th smallest
       sample, rank = ceil (q * n) clamped into [1, n]. *)
    let rank = int_of_float (Float.ceil (q *. float_of_int s.count)) in
    let rank = max 1 (min s.count rank) in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < num_buckets do
      seen := !seen + s.counts.(!i);
      incr i
    done;
    let v = midpoint (!i - 1) in
    Float.max s.min (Float.min s.max v)
  end

let summary_json s =
  let q x = Json.Num (quantile s x) in
  Json.Obj
    [ ("count", Json.int s.count);
      ("p50_ms", q 0.50);
      ("p95_ms", q 0.95);
      ("p99_ms", q 0.99);
      ("p999_ms", q 0.999) ]

let clear t =
  Mutex.lock t.mutex;
  List.iter
    (fun shard ->
      Array.fill shard.buckets 0 num_buckets 0;
      shard.scalars.(0) <- 0.0;
      shard.scalars.(1) <- infinity;
      shard.scalars.(2) <- neg_infinity)
    t.shards;
  Mutex.unlock t.mutex
