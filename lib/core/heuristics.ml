type outcome = { architecture : Architecture.t; test_time : int }

(* What every start of one [solve] shares: the clustering, a
   cluster-by-cluster exclusion matrix and each cluster's testing time
   at every width in [1, total_width]. *)
type setup = {
  problem : Problem.t;
  clustering : Clustering.t;
  excluded : bool array array;
  times : int array array;
      (** [times.(c).(w - 1)] is cluster [c]'s time at width [w]. *)
}

let setup problem =
  match Clustering.build problem with
  | Error _ -> None
  | Ok clustering ->
      let m = Clustering.num_clusters clustering in
      let excluded = Array.make_matrix m m false in
      List.iter
        (fun (a, b) ->
          excluded.(a).(b) <- true;
          excluded.(b).(a) <- true)
        clustering.Clustering.exclusions;
      let times =
        Array.init m (fun c ->
            Array.init (Problem.total_width problem) (fun k ->
                Clustering.time clustering problem ~cluster:c ~width:(k + 1)))
      in
      Some { problem; clustering; excluded; times }

let greedy_clusters s widths =
  let m = Clustering.num_clusters s.clustering in
  let nb = Array.length widths in
  let time c b = s.times.(c).(widths.(b) - 1) in
  let key =
    Array.init m (fun c ->
        let acc = ref 0 in
        for b = 0 to nb - 1 do
          acc := max !acc (time c b)
        done;
        !acc)
  in
  let order = Array.init m Fun.id in
  Array.sort (fun a b -> compare key.(b) key.(a)) order;
  let loads = Array.make nb 0 in
  let buses = Array.make nb [] in
  let assign = Array.make m (-1) in
  let place c =
    let best = ref (-1) in
    let best_load = ref max_int in
    for b = 0 to nb - 1 do
      let clash = List.exists (fun c' -> s.excluded.(c).(c')) buses.(b) in
      if not clash then begin
        let load = loads.(b) + time c b in
        if load < !best_load then begin
          best_load := load;
          best := b
        end
      end
    done;
    if !best < 0 then false
    else begin
      loads.(!best) <- !best_load;
      buses.(!best) <- c :: buses.(!best);
      assign.(c) <- !best;
      true
    end
  in
  let ok = Array.for_all place order in
  if ok then Some assign else None

let greedy_from s ~widths =
  match greedy_clusters s widths with
  | None -> None
  | Some cluster_assignment -> (
      let assignment = Clustering.expand s.clustering cluster_assignment in
      let architecture = Architecture.make ~widths ~assignment in
      let e = Cost.evaluate s.problem architecture in
      if e.Cost.feasible then
        Some { architecture; test_time = e.Cost.test_time }
      else None)

let greedy problem ~widths =
  match setup problem with None -> None | Some s -> greedy_from s ~widths

(* First-improvement local search from [current]: cluster moves, then
   cluster swaps, then unit width transfers, restarting from the first
   move after every improvement. A candidate is scored from the bus
   loads it changes, two buses at a time, and passes [Cost.evaluate]'s
   checks exactly when it keeps the bus count and the width budget and
   puts no excluded pair of clusters on one bus. *)
let improve_from s (current : outcome) =
  let arch = current.architecture in
  let nb = Architecture.num_buses arch in
  let members = s.clustering.Clustering.members in
  let m = Array.length members in
  let cluster_bus =
    Array.init m (fun c ->
        match members.(c) with
        | core :: _ -> arch.Architecture.assignment.(core)
        | [] -> 0)
  in
  (* Every candidate keeps the bus count and the total width, so with
     either wrong none is feasible. *)
  if
    nb <> Problem.num_buses s.problem
    || Architecture.total_width arch <> Problem.total_width s.problem
  then current
  else begin
    let widths = Array.copy arch.Architecture.widths in
    let time c b = s.times.(c).(widths.(b) - 1) in
    let bus_load b =
      let acc = ref 0 in
      for c = 0 to m - 1 do
        if cluster_bus.(c) = b then acc := !acc + time c b
      done;
      !acc
    in
    let loads = Array.make nb 0 in
    (* The test time with buses [b1] and [b2] at loads [l1] and [l2]. *)
    let test_time b1 l1 b2 l2 =
      let acc = ref 0 in
      for b = 0 to nb - 1 do
        let l = if b = b1 then l1 else if b = b2 then l2 else loads.(b) in
        acc := max !acc l
      done;
      !acc
    in
    let feasible () =
      List.for_all
        (fun (a, b) -> cluster_bus.(a) <> cluster_bus.(b))
        s.clustering.Clustering.exclusions
    in
    let best = ref current.test_time in
    let changed = ref false in
    let improved = ref true in
    (* [accept t] runs with the candidate applied. *)
    let accept t =
      if t < !best && feasible () then begin
        best := t;
        improved := true;
        true
      end
      else false
    in
    while !improved do
      improved := false;
      for b = 0 to nb - 1 do
        loads.(b) <- bus_load b
      done;
      (* Cluster moves. *)
      for c = 0 to m - 1 do
        let original = cluster_bus.(c) in
        for b = 0 to nb - 1 do
          if b <> original && not !improved then begin
            let t =
              test_time original
                (loads.(original) - time c original)
                b
                (loads.(b) + time c b)
            in
            cluster_bus.(c) <- b;
            if not (accept t) then cluster_bus.(c) <- original
          end
        done
      done;
      (* Cluster swaps. *)
      if not !improved then
        for c1 = 0 to m - 1 do
          for c2 = c1 + 1 to m - 1 do
            if (not !improved) && cluster_bus.(c1) <> cluster_bus.(c2) then begin
              let b1 = cluster_bus.(c1) and b2 = cluster_bus.(c2) in
              let t =
                test_time b1
                  (loads.(b1) - time c1 b1 + time c2 b1)
                  b2
                  (loads.(b2) - time c2 b2 + time c1 b2)
              in
              cluster_bus.(c1) <- b2;
              cluster_bus.(c2) <- b1;
              if not (accept t) then begin
                cluster_bus.(c1) <- b1;
                cluster_bus.(c2) <- b2
              end
            end
          done
        done;
      (* Unit width transfers. *)
      if not !improved then
        for src = 0 to nb - 1 do
          for dst = 0 to nb - 1 do
            if (not !improved) && src <> dst && widths.(src) > 1 then begin
              widths.(src) <- widths.(src) - 1;
              widths.(dst) <- widths.(dst) + 1;
              let t = test_time src (bus_load src) dst (bus_load dst) in
              if not (accept t) then begin
                widths.(src) <- widths.(src) + 1;
                widths.(dst) <- widths.(dst) - 1
              end
            end
          done
        done;
      if !improved then changed := true
    done;
    if !changed then
      { architecture =
          Architecture.make ~widths
            ~assignment:(Clustering.expand s.clustering cluster_bus);
        test_time = !best }
    else current
  end

let improve problem outcome =
  match setup problem with
  | None -> outcome
  | Some s -> improve_from s outcome

let balanced_partition ~total ~parts =
  let base = total / parts and extra = total mod parts in
  Array.init parts (fun b -> if b < extra then base + 1 else base)

let random_partition state ~total ~parts =
  (* Every bus starts at width 1; the [total - parts] spare wires then
     go one at a time to uniformly drawn buses. *)
  let widths = Array.make parts 1 in
  let remaining = total - parts in
  for _ = 1 to remaining do
    let b = Random.State.int state parts in
    widths.(b) <- widths.(b) + 1
  done;
  widths

let solve ?(seed = 1) ?(restarts = 8) ?(should_stop = fun () -> false)
    ?(report = fun _ -> ()) problem =
 Soctam_obs.Obs.span "heuristic.solve" @@ fun () ->
  let nb = Problem.num_buses problem in
  let w = Problem.total_width problem in
  let state = Random.State.make [| seed; 0x7a11 |] in
  let starts =
    balanced_partition ~total:w ~parts:nb
    :: List.init restarts (fun _ -> random_partition state ~total:w ~parts:nb)
  in
  let s = setup problem in
  let consider best widths =
    if should_stop () then best
    else
      match s with
      | None -> best
      | Some s -> (
          match greedy_from s ~widths with
          | None -> best
          | Some outcome -> (
              let polished = improve_from s outcome in
              match best with
              | Some b when b.test_time <= polished.test_time -> best
              | Some _ | None ->
                  report polished;
                  Some polished))
  in
  List.fold_left consider None starts
