type outcome = { architecture : Architecture.t; test_time : int }

(* Mutable annealing state over clusters: widths, per-cluster bus, bus
   loads (incrementally maintained) and bus occupancy bitmasks for O(1)
   exclusion checks. *)
type state = {
  problem : Problem.t;
  clustering : Clustering.t;
  adj : int array;  (** Exclusion adjacency bitmask per cluster. *)
  widths : int array;
  cluster_bus : int array;
  loads : int array;
  bus_mask : int array;
}

let cluster_time st c b =
  Clustering.time st.clustering st.problem ~cluster:c
    ~width:st.widths.(b)

let makespan st = Array.fold_left max 0 st.loads

(* Recompute all loads; needed after width changes. *)
let rebuild_loads st =
  Array.fill st.loads 0 (Array.length st.loads) 0;
  Array.iteri
    (fun c b -> st.loads.(b) <- st.loads.(b) + cluster_time st c b)
    st.cluster_bus

let init problem clustering start_widths start_assignment =
  let m = Clustering.num_clusters clustering in
  let nb = Array.length start_widths in
  let adj = Array.make m 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- adj.(a) lor (1 lsl b);
      adj.(b) <- adj.(b) lor (1 lsl a))
    clustering.Clustering.exclusions;
  let st =
    { problem;
      clustering;
      adj;
      widths = Array.copy start_widths;
      cluster_bus = Array.copy start_assignment;
      loads = Array.make nb 0;
      bus_mask = Array.make nb 0 }
  in
  Array.iteri
    (fun c b -> st.bus_mask.(b) <- st.bus_mask.(b) lor (1 lsl c))
    st.cluster_bus;
  rebuild_loads st;
  st

(* Neighbourhood moves return [Some delta_applied] when accepted state
   changed, rolling back is the caller's job via the returned undo. *)
type move =
  | Move_cluster of { cluster : int; target : int }
  | Swap_clusters of { c1 : int; c2 : int }
  | Transfer_width of { src : int; dst : int }

let random_move st rng =
  let m = Array.length st.cluster_bus in
  let nb = Array.length st.widths in
  match Random.State.int rng 3 with
  | 0 ->
      let cluster = Random.State.int rng m in
      let target = Random.State.int rng nb in
      Some (Move_cluster { cluster; target })
  | 1 ->
      if m < 2 then None
      else begin
        let c1 = Random.State.int rng m in
        let c2 = Random.State.int rng m in
        if c1 = c2 then None else Some (Swap_clusters { c1; c2 })
      end
  | _ ->
      if nb < 2 then None
      else begin
        let src = Random.State.int rng nb in
        let dst = Random.State.int rng nb in
        if src = dst || st.widths.(src) <= 1 then None
        else Some (Transfer_width { src; dst })
      end

let legal st = function
  | Move_cluster { cluster; target } ->
      st.cluster_bus.(cluster) <> target
      && st.bus_mask.(target) land st.adj.(cluster) = 0
  | Swap_clusters { c1; c2 } ->
      let b1 = st.cluster_bus.(c1) and b2 = st.cluster_bus.(c2) in
      b1 <> b2
      && (st.bus_mask.(b2) land lnot (1 lsl c2)) land st.adj.(c1) = 0
      && (st.bus_mask.(b1) land lnot (1 lsl c1)) land st.adj.(c2) = 0
  | Transfer_width _ -> true

let apply st = function
  | Move_cluster { cluster; target } ->
      let source = st.cluster_bus.(cluster) in
      st.loads.(source) <- st.loads.(source) - cluster_time st cluster source;
      st.loads.(target) <- st.loads.(target) + cluster_time st cluster target;
      st.bus_mask.(source) <- st.bus_mask.(source) land lnot (1 lsl cluster);
      st.bus_mask.(target) <- st.bus_mask.(target) lor (1 lsl cluster);
      st.cluster_bus.(cluster) <- target;
      Move_cluster { cluster; target = source }
  | Swap_clusters { c1; c2 } ->
      let b1 = st.cluster_bus.(c1) and b2 = st.cluster_bus.(c2) in
      st.loads.(b1) <-
        st.loads.(b1) - cluster_time st c1 b1 + cluster_time st c2 b1;
      st.loads.(b2) <-
        st.loads.(b2) - cluster_time st c2 b2 + cluster_time st c1 b2;
      st.bus_mask.(b1) <-
        st.bus_mask.(b1) land lnot (1 lsl c1) lor (1 lsl c2);
      st.bus_mask.(b2) <-
        st.bus_mask.(b2) land lnot (1 lsl c2) lor (1 lsl c1);
      st.cluster_bus.(c1) <- b2;
      st.cluster_bus.(c2) <- b1;
      Swap_clusters { c1; c2 }
  | Transfer_width { src; dst } ->
      st.widths.(src) <- st.widths.(src) - 1;
      st.widths.(dst) <- st.widths.(dst) + 1;
      (* Width changes affect every cluster on both buses. *)
      rebuild_loads st;
      Transfer_width { src = dst; dst = src }

let snapshot st =
  let assignment = Clustering.expand st.clustering st.cluster_bus in
  Architecture.make ~widths:st.widths ~assignment

(* Geometric cooling factor per iteration. *)
let cooling = 0.999

let solve ?(seed = 1) ?(iterations = 20_000) ?(should_stop = fun () -> false)
    ?(report = fun _ -> ()) problem =
  match Clustering.build problem with
  | Error _ -> None
  | Ok clustering -> (
      let start =
        match Heuristics.solve ~seed problem with
        | Some { Heuristics.architecture; _ } -> Some architecture
        | None -> None
      in
      match start with
      | None -> None
      | Some arch ->
          let m = Clustering.num_clusters clustering in
          let cluster_bus =
            Array.init m (fun c ->
                match clustering.Clustering.members.(c) with
                | core :: _ -> arch.Architecture.assignment.(core)
                | [] -> 0)
          in
          let st =
            init problem clustering arch.Architecture.widths cluster_bus
          in
          let rng = Random.State.make [| seed; 0x5a5a |] in
          let current = ref (makespan st) in
          let best = ref !current in
          let best_arch = ref (snapshot st) in
          (* Start at 5% of the initial makespan. *)
          let temperature =
            ref (Float.max 1.0 (0.05 *. float_of_int !current))
          in
          let exception Stop in
          (* Cooperative cancellation: polled once per iteration (the
             hook is a cheap atomic load in racing callers); the best
             solution so far survives an early exit. *)
          (try
             for _ = 1 to iterations do
               if should_stop () then raise Stop;
               (match random_move st rng with
               | None -> ()
               | Some move ->
                   if legal st move then begin
                     let undo = apply st move in
                     let next = makespan st in
                     let delta = float_of_int (next - !current) in
                     let accept =
                       delta <= 0.0
                       || Random.State.float rng 1.0
                          < Float.exp (-.delta /. !temperature)
                     in
                     if accept then begin
                       current := next;
                       if next < !best then begin
                         best := next;
                         best_arch := snapshot st;
                         report { architecture = !best_arch; test_time = next }
                       end
                     end
                     else ignore (apply st undo)
                   end);
               temperature := Float.max 1e-3 (!temperature *. cooling)
             done
           with Stop -> ());
          Some { architecture = !best_arch; test_time = !best })
