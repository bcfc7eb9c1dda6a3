(* Request streams of the three workloads.

   Everything here is a pure function of the workload seed: the daemon
   only ever sees the rendered request lines. Each workload has a setup
   list (sent once, in order, on one connection, before timing starts)
   and a timed stream whose i-th element is the i-th request the closed
   loop hands out. *)

module Json = Soctam_obs.Json
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Benchmarks = Soctam_soc.Benchmarks
module Test_time = Soctam_soc.Test_time
module Floorplan = Soctam_layout.Floorplan
module Conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts
module Protocol = Soctam_service.Protocol

type entry = {
  line : string;
  inst : Protocol.instance;
  twin : (int * int array) option;
      (** [(k, src)]: this request is setup entry [k] with its cores
          reordered — core [i] here is core [src.(i)] there. *)
}

type t = {
  name : string;
  cache : int;  (** daemon [--cache] *)
  store : bool;  (** daemon gets [--store] on a fresh directory *)
  connections : int;  (** closed-loop client connections, at most nproc *)
  setup : entry array;
  stream : entry array;
}

let names = [ "hot"; "ilp_cold"; "store_churn" ]

(* Timed streams are pre-rendered up to these lengths; a run that
   exhausts its stream ends its timed phase early. *)
let hot_stream_len = 400_000
let ilp_stream_len = 4_000
let churn_stream_len = 80_000

let entry ?twin inst =
  let req =
    Protocol.Solve { instance = inst; deadline_ms = None; stream = false }
  in
  { line = Json.to_string (Protocol.json_of_request req); inst; twin }

let soc_of (inst : Protocol.instance) =
  match Protocol.resolve_soc inst.Protocol.soc_spec with
  | Ok soc -> soc
  | Error msg -> failwith msg

let rng seed salt i = Random.State.make [| seed; salt; i |]
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Budget under which exactly the [k] hungriest core pairs conflict
   (fewer when pair sums tie). *)
let p_max_for soc ~k =
  let n = Soc.num_cores soc in
  let p i = (Soc.core soc i).Core_def.power_mw in
  let sums = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      sums := (p i +. p j) :: !sums
    done
  done;
  let sums = Array.of_list (List.sort (fun a b -> compare b a) !sums) in
  let k = max 1 (min k (Array.length sums - 1)) in
  Float.round ((sums.(k - 1) +. sums.(k)) *. 5.0) /. 10.0

let d_max_for soc ~q =
  let d = Conflicts.distance_quantile (Floorplan.place soc) q in
  Float.round (d *. 100.0) /. 100.0

(* Constraint sets that admit an architecture: co-assignment pairs merge
   cores into groups, and the exclusion pairs between groups must be
   colourable with [num_buses] buses. *)
let satisfiable (inst : Protocol.instance) =
  let soc = soc_of inst in
  let n = Soc.num_cores soc in
  let excl =
    match inst.d_max_mm with
    | None -> []
    | Some d -> Conflicts.exclusion_pairs (Floorplan.place soc) ~d_max_mm:d
  in
  let co =
    match inst.p_max_mw with
    | None -> []
    | Some p -> Power_conflicts.co_assignment_pairs soc ~p_max_mw:p
  in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  List.iter (fun (a, b) -> parent.(find a) <- find b) co;
  let edges = List.map (fun (a, b) -> (find a, find b)) excl in
  let colour = Array.make n (-1) in
  let rec go v =
    v = n
    || (find v <> v && go (v + 1))
    || List.exists
         (fun c ->
           List.for_all
             (fun (a, b) ->
               not ((a = v && colour.(b) = c) || (b = v && colour.(a) = c)))
             edges
           && begin
             colour.(v) <- c;
             let ok = go (v + 1) in
             colour.(v) <- -1;
             ok
           end)
         (List.init inst.num_buses Fun.id)
  in
  List.for_all (fun (a, b) -> a <> b) edges && go 0

let instance ?d_max_mm ?p_max_mw ~solver ~num_buses ~total_width soc_spec =
  { Protocol.soc_spec;
    solver;
    num_buses;
    total_width;
    time_model = Test_time.Serialization;
    d_max_mm;
    p_max_mw }

(* A fresh random instance of [cores] cores, [num_buses] buses and
   width [total_width] carrying both pair kinds, redrawn until its
   constraints are satisfiable. Three buses admit a tighter floorplan
   budget, whose exclusion triangles give the MILP clique rows. *)
let rec constrained st ~solver ~shape:((cores, num_buses, total_width) as shape)
    =
  let spec =
    Printf.sprintf "rnd:%d:%d" (Random.State.int st 1_000_000_000) cores
  in
  let soc = soc_of (instance ~solver ~num_buses ~total_width (Named spec)) in
  let inst =
    instance ~solver ~num_buses ~total_width
      ~d_max_mm:
        (d_max_for soc
           ~q:
             (if num_buses >= 3 then 0.45 +. Random.State.float st 0.25
              else 0.80 +. Random.State.float st 0.12))
      ~p_max_mw:(p_max_for soc ~k:(int_in st 1 2))
      (Named spec)
  in
  if satisfiable inst then inst else constrained st ~solver ~shape

(* [(soc', src)]: core [i] of [soc'] is core [src.(i)] of [soc]. *)
let permuted st soc =
  let n = Soc.num_cores soc in
  let src = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let c = src.(i) in
    src.(i) <- src.(j);
    src.(j) <- c
  done;
  ( Soc.make ~name:(Soc.name soc)
      (Array.to_list (Array.map (Soc.core soc) src)),
    src )

(* ---- the MILP instance pool ----

   [ilp_cold], and the [hot] MILP entries that carry pairs, draw from a
   fixed pool of candidates minus [Known_bad.ilp]: the candidates on
   which the shipped MILP disagreed with [Exact.solve] when the pool was
   screened ([bench.exe --screen-ilp]). The pool does not depend on the
   code under test, so every commit sees the same inputs for a seed. *)
let ilp_shapes =
  Array.of_list
    (List.concat_map
       (fun cores ->
         List.init 7 (fun k -> (cores, 2, 8 + k))
         @ List.init 3 (fun k -> (cores, 3, 8 + k)))
       [ 4; 5; 6 ])

let ilp_per_shape = 700

let ilp_candidate i =
  constrained (rng 0x1c0 0x1c05 i) ~solver:Protocol.Ilp
    ~shape:ilp_shapes.(i mod Array.length ilp_shapes)

(* Position [p] of a seed's draw: shape [p mod shapes], and the next
   screened candidate of that shape in the seed's shuffle. Every seed
   thus sends the same sequence of shapes. *)
let ilp_order seed =
  let shapes = Array.length ilp_shapes in
  let bad = Hashtbl.create 256 in
  Array.iter (fun i -> Hashtbl.replace bad i ()) Known_bad.ilp;
  let per_shape =
    Array.init shapes (fun sh ->
        let ids =
          Array.of_list
            (List.filter
               (fun i -> not (Hashtbl.mem bad i))
               (List.init ilp_per_shape (fun k -> sh + (k * shapes))))
        in
        let st = rng seed 0x1c04 sh in
        for i = Array.length ids - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let c = ids.(i) in
          ids.(i) <- ids.(j);
          ids.(j) <- c
        done;
        ids)
  in
  fun p -> per_shape.(p mod shapes).(p / shapes)

(* hot: 48 distinct requests, every one solved during setup, then drawn
   uniformly. Unconstrained MILP entries use [s1]/[s2] on two buses at
   W <= 16 only: every such point was checked against [Exact], and each
   solves in milliseconds, so set-up time does not swing with the seed.
   Constrained ones come from the screened pool. Entries 36..47 are six
   pairs of inline SOC objects copied from entries that carry no
   floorplan budget: the first of a pair in its original core order,
   the second shuffled. The pair shares one canon key, so the shuffled
   request is an LRU hit served through a non-identity remap. (An
   inline copy does not share the key of its named original: the wire
   prints floats to 12 digits.) *)
let hot seed =
  let st = rng seed 0x4807 0 in
  let pool = ilp_order seed in
  let base k =
    let solver =
      match k mod 3 with
      | 0 -> Protocol.Exact
      | 1 -> Protocol.Ilp
      | _ -> Protocol.Race
    in
    let spec, num_buses, total_width =
      match Random.State.int st 4 with
      | 0 when solver <> Protocol.Ilp -> ("s1", int_in st 2 3, int_in st 8 24)
      | 0 | 1 -> ("s2", 2, int_in st 8 16)
      | 2 when solver = Protocol.Exact -> ("s3", 2, int_in st 8 16)
      | _ when solver = Protocol.Ilp -> ("s1", 2, int_in st 8 16)
      | _ ->
          ( Printf.sprintf "rnd:%d:%d" (Random.State.int st 100_000)
              (int_in st 4 7),
            int_in st 2 3,
            int_in st 8 16 )
    in
    let plain = instance ~solver ~num_buses ~total_width (Named spec) in
    if k mod 2 = 0 then plain
    else if solver = Protocol.Ilp then ilp_candidate (pool k)
    else
      let soc = soc_of plain in
      let inst =
        { plain with
          d_max_mm = Some (d_max_for soc ~q:0.9);
          p_max_mw = Some (p_max_for soc ~k:1) }
      in
      if satisfiable inst then inst else plain
  in
  let bases = Array.init 36 base in
  let unplaced =
    List.filter (fun (b : Protocol.instance) -> b.d_max_mm = None)
      (Array.to_list bases)
  in
  let pairs =
    List.init 6 (fun k ->
        let b = List.nth unplaced (k mod List.length unplaced) in
        let soc = soc_of b in
        let shuffled, src = permuted st soc in
        [ entry { b with Protocol.soc_spec = Inline soc };
          entry
            ~twin:(Array.length bases + (2 * k), src)
            { b with Protocol.soc_spec = Inline shuffled } ])
  in
  let set =
    Array.append (Array.map entry bases) (Array.of_list (List.concat pairs))
  in
  let pick = rng seed 0x4808 0 in
  { name = "hot";
    cache = 256;
    store = false;
    connections = 2;
    setup = set;
    stream =
      Array.init hot_stream_len (fun _ ->
          set.(Random.State.int pick (Array.length set))) }

(* ilp_cold: never-seen MILP solves from the screened pool; the 24
   warm-up requests are pool entries the timed stream never repeats. *)
let ilp_cold seed =
  let pool = ilp_order seed in
  let at i = entry (ilp_candidate (pool i)) in
  { name = "ilp_cold";
    cache = 256;
    store = false;
    connections = 2;
    setup = Array.init 24 at;
    stream = Array.init ilp_stream_len (fun i -> at (24 + i)) }

(* store_churn: 320 exact-solved instances pre-populated into the
   store, behind an LRU of 16; 80% of the timed stream repeats them,
   20% are fresh race solves, each followed by an fsynced store
   append. One connection, so that a store hit never queues behind a
   race on the daemon's single worker and the median stays the
   store-read path. *)
let churn_set = 320

let churn_base seed i =
  let st = rng seed 0x5701 i in
  let spec =
    Printf.sprintf "rnd:%d:%d" (Random.State.int st 1_000_000_000) (int_in st 6 10)
  in
  let num_buses = int_in st 2 3 and total_width = int_in st 8 24 in
  if i mod 2 = 0 then
    instance ~solver:Protocol.Exact ~num_buses ~total_width (Named spec)
  else
    let soc =
      soc_of (instance ~solver:Exact ~num_buses ~total_width (Named spec))
    in
    instance ~solver:Protocol.Exact ~num_buses ~total_width
      ~p_max_mw:(p_max_for soc ~k:(int_in st 1 2)) (Named spec)

let store_churn seed =
  let set = Array.init churn_set (fun i -> entry (churn_base seed i)) in
  let stream =
    Array.init churn_stream_len (fun i ->
        let st = rng seed 0x5702 i in
        if Random.State.int st 5 > 0 then set.(Random.State.int st churn_set)
        else
          entry
            (constrained st ~solver:Protocol.Race
               ~shape:(int_in st 6 10, int_in st 2 3, int_in st 8 24)))
  in
  { name = "store_churn";
    cache = 16;
    store = true;
    connections = 1;
    setup = set;
    stream }

let make ~name seed =
  match name with
  | "hot" -> hot seed
  | "ilp_cold" -> ilp_cold seed
  | "store_churn" -> store_churn seed
  | _ -> invalid_arg ("unknown workload " ^ name)
