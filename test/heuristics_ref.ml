(* Reference copy of [Soctam_core.Heuristics] as it was before the
   local search scored candidates from bus loads: a full
   [Cost.evaluate] of a rebuilt architecture per candidate. Kept
   verbatim below the [open], so [test_heuristics.ml] can check that
   the faster search returns the same outcomes and reports. *)

open Soctam_core

type outcome = { architecture : Architecture.t; test_time : int }

let cluster_setup problem =
  match Clustering.build problem with
  | Error _ -> None
  | Ok clustering -> Some clustering

let excluded clustering c1 c2 =
  List.exists
    (fun (a, b) -> (a = c1 && b = c2) || (a = c2 && b = c1))
    clustering.Clustering.exclusions

let greedy_clusters problem clustering widths =
  let m = Clustering.num_clusters clustering in
  let nb = Array.length widths in
  let time c b =
    Clustering.time clustering problem ~cluster:c ~width:widths.(b)
  in
  let order = Array.init m Fun.id in
  let key c =
    let acc = ref 0 in
    for b = 0 to nb - 1 do
      acc := max !acc (time c b)
    done;
    !acc
  in
  Array.sort (fun a b -> compare (key b) (key a)) order;
  let loads = Array.make nb 0 in
  let buses = Array.make nb [] in
  let assign = Array.make m (-1) in
  let place c =
    let best = ref (-1) in
    let best_load = ref max_int in
    for b = 0 to nb - 1 do
      let clash = List.exists (fun c' -> excluded clustering c c') buses.(b) in
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

let evaluate problem arch =
  let e = Cost.evaluate problem arch in
  if e.Cost.feasible then Some e.Cost.test_time else None

let greedy problem ~widths =
  match cluster_setup problem with
  | None -> None
  | Some clustering -> (
      match greedy_clusters problem clustering widths with
      | None -> None
      | Some cluster_assignment ->
          let assignment = Clustering.expand clustering cluster_assignment in
          let architecture = Architecture.make ~widths ~assignment in
          (match evaluate problem architecture with
          | Some test_time -> Some { architecture; test_time }
          | None -> None))

(* One pass of first-improvement neighbourhood exploration. Returns the
   improved solution and whether anything changed. *)
let improve_once problem (current : outcome) =
  match cluster_setup problem with
  | None -> (current, false)
  | Some clustering ->
      let arch = current.architecture in
      let nb = Architecture.num_buses arch in
      let widths = Array.copy arch.Architecture.widths in
      let m = Clustering.num_clusters clustering in
      let cluster_bus =
        Array.init m (fun c ->
            match clustering.Clustering.members.(c) with
            | core :: _ -> arch.Architecture.assignment.(core)
            | [] -> 0)
      in
      let rebuild () =
        Architecture.make ~widths
          ~assignment:(Clustering.expand clustering cluster_bus)
      in
      let best = ref current.test_time in
      let improved = ref false in
      let try_current () =
        let candidate = rebuild () in
        match evaluate problem candidate with
        | Some t when t < !best ->
            best := t;
            improved := true;
            true
        | Some _ | None -> false
      in
      (* Cluster moves. *)
      for c = 0 to m - 1 do
        let original = cluster_bus.(c) in
        for b = 0 to nb - 1 do
          if b <> original && not !improved then begin
            cluster_bus.(c) <- b;
            if not (try_current ()) then cluster_bus.(c) <- original
          end
        done
      done;
      (* Cluster swaps. *)
      if not !improved then
        for c1 = 0 to m - 1 do
          for c2 = c1 + 1 to m - 1 do
            if (not !improved) && cluster_bus.(c1) <> cluster_bus.(c2) then begin
              let b1 = cluster_bus.(c1) and b2 = cluster_bus.(c2) in
              cluster_bus.(c1) <- b2;
              cluster_bus.(c2) <- b1;
              if not (try_current ()) then begin
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
              if not (try_current ()) then begin
                widths.(src) <- widths.(src) + 1;
                widths.(dst) <- widths.(dst) - 1
              end
            end
          done
        done;
      if !improved then
        ({ architecture = rebuild (); test_time = !best }, true)
      else (current, false)

let improve problem outcome =
  let rec loop current =
    let next, changed = improve_once problem current in
    if changed then loop next else current
  in
  loop outcome

let balanced_partition ~total ~parts =
  let base = total / parts and extra = total mod parts in
  Array.init parts (fun b -> if b < extra then base + 1 else base)

let random_partition state ~total ~parts =
  (* parts-1 distinct cut points in [1, total-1]. *)
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
  let consider best widths =
    if should_stop () then best
    else
      match greedy problem ~widths with
      | None -> best
      | Some outcome -> (
          let polished = improve problem outcome in
          match best with
          | Some b when b.test_time <= polished.test_time -> best
          | Some _ | None ->
              report polished;
              Some polished)
  in
  List.fold_left consider None starts
