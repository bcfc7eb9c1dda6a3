module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Clustering = Soctam_core.Clustering
module Exact = Soctam_core.Exact
module Cost = Soctam_core.Cost
module Floorplan = Soctam_layout.Floorplan
module Routing = Soctam_layout.Routing

type result = {
  architecture : Architecture.t;
  test_time : int;
  trunk_mm : float;
  optima_enumerated : int;
  capped : bool;
}

(* Enumeration cap: time-optimal architectures considered per solve. *)
let cap = 20_000

(* Enumerate all cluster assignments whose makespan equals [target] for
   the given widths, invoking [emit] on each (at most [cap] times). *)
let enumerate_optimal problem clustering widths ~target ~count ~emit =
  let m = Clustering.num_clusters clustering in
  let nb = Array.length widths in
  let time =
    Array.init m (fun c ->
        Array.init nb (fun b ->
            Clustering.time clustering problem ~cluster:c ~width:widths.(b)))
  in
  let order = Array.init m Fun.id in
  let key c = Array.fold_left max 0 time.(c) in
  Array.sort (fun a b -> compare (key b) (key a)) order;
  let min_time =
    Array.init m (fun c -> Array.fold_left min max_int time.(c))
  in
  let remaining_min = Array.make (m + 1) 0 in
  for k = m - 1 downto 0 do
    remaining_min.(k) <- remaining_min.(k + 1) + min_time.(order.(k))
  done;
  let adj = Array.make m 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- adj.(a) lor (1 lsl b);
      adj.(b) <- adj.(b) lor (1 lsl a))
    clustering.Clustering.exclusions;
  let loads = Array.make nb 0 in
  let bus_mask = Array.make nb 0 in
  let assign = Array.make m (-1) in
  let rec explore k total_load =
    if !count >= cap then ()
    else if k = m then emit (Clustering.expand clustering (Array.copy assign))
    else begin
      let bound = (total_load + remaining_min.(k) + nb - 1) / nb in
      if bound <= target then begin
        let c = order.(k) in
        for b = 0 to nb - 1 do
          (* No symmetry pruning here: distinct bus permutations route
             differently, so all must be considered. *)
          if
            bus_mask.(b) land adj.(c) = 0
            && loads.(b) + time.(c).(b) <= target
          then begin
            loads.(b) <- loads.(b) + time.(c).(b);
            bus_mask.(b) <- bus_mask.(b) lor (1 lsl c);
            assign.(c) <- b;
            explore (k + 1) (total_load + time.(c).(b));
            assign.(c) <- -1;
            bus_mask.(b) <- bus_mask.(b) land lnot (1 lsl c);
            loads.(b) <- loads.(b) - time.(c).(b)
          end
        done
      end
    end
  in
  explore 0 0

let solve problem floorplan =
  match (Exact.solve problem).Exact.solution with
  | None -> None
  | Some (fallback, target) -> (
      match Clustering.build problem with
      | Error _ -> None
      | Ok clustering ->
          let nb = Problem.num_buses problem in
          let w = Problem.total_width problem in
          let best = ref None in
          let count = ref 0 in
          let consider widths assignment =
            incr count;
            let arch = Architecture.make ~widths ~assignment in
            (* Enumeration guarantees the makespan; re-check cheaply. *)
            assert (Cost.test_time problem arch = target);
            let wiring =
              Routing.wiring floorplan ~assignment ~widths
            in
            match !best with
            | Some (_, best_mm) when best_mm <= wiring.Routing.total_mm ->
                ()
            | Some _ | None -> best := Some (arch, wiring.Routing.total_mm)
          in
          (* Enumerate compositions (ordered widths): bus identity matters
             for routing because member sets differ per bus. Compositions
             of equal multiset produce permuted architectures; the trunk
             estimator only depends on member sets and widths, so
             restricting to partitions (non-increasing widths) with free
             assignment already covers every routing outcome. *)
          List.iter
            (fun widths_list ->
              let widths = Array.of_list widths_list in
              enumerate_optimal problem clustering widths ~target ~count
                ~emit:(consider widths))
            (Exact.width_partitions ~total:w ~parts:nb);
          let architecture, trunk_mm =
            match !best with
            | Some (arch, mm) -> (arch, mm)
            | None ->
                (* The exact optimum exists, so enumeration finds at least
                   one solution; fall back all the same. *)
                let wiring =
                  Routing.wiring floorplan
                    ~assignment:fallback.Architecture.assignment
                    ~widths:fallback.Architecture.widths
                in
                (fallback, wiring.Routing.total_mm)
          in
          Some
            { architecture;
              test_time = target;
              trunk_mm;
              optima_enumerated = !count;
              capped = !count >= cap })
