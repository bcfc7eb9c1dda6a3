module Problem = Soctam_core.Problem
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

type running = { finish : int; power : float; bus : int }

(* The conversion lists each bus's tests back-to-back, bus by bus:
   cutting it where [wire_lo] changes gives one queue per non-empty
   bus, in bus order, each keeping its core order and wire interval. *)
let bus_queues (sched : Rect_sched.t) =
  List.fold_right
    (fun (p : Rect_sched.placement) queues ->
      match queues with
      | (q :: _ as queue) :: rest when q.Rect_sched.wire_lo = p.wire_lo ->
          (p :: queue) :: rest
      | _ -> [ p ] :: queues)
    sched.placements []

let stagger problem arch ~p_max_mw =
  let soc = Problem.soc problem in
  let power core = (Soc.core soc core).Core_def.power_mw in
  let over_budget =
    Soc.fold (fun acc _ c -> acc || c.Core_def.power_mw > p_max_mw +. 1e-9)
      false soc
  in
  if over_budget then None
  else begin
    let queues =
      Array.of_list
        (List.map ref (bus_queues (Rect_sched.of_architecture problem arch)))
    in
    let nb = Array.length queues in
    let running = ref ([] : running list) in
    let placements = ref [] in
    let clock = ref 0 in
    let makespan = ref 0 in
    let busy bus = List.exists (fun r -> r.bus = bus) !running in
    let load () = List.fold_left (fun acc r -> acc +. r.power) 0.0 !running in
    let try_starts () =
      for bus = 0 to nb - 1 do
        if not (busy bus) then
          match !(queues.(bus)) with
          | [] -> ()
          | (p : Rect_sched.placement) :: rest ->
              if load () +. power p.core <= p_max_mw +. 1e-9 then begin
                let finish = !clock + (p.finish - p.start) in
                placements := { p with start = !clock; finish } :: !placements;
                running := { finish; power = power p.core; bus } :: !running;
                queues.(bus) := rest;
                makespan := max !makespan finish
              end
      done
    in
    let all_done () =
      !running = [] && Array.for_all (fun q -> !q = []) queues
    in
    while not (all_done ()) do
      try_starts ();
      if not (all_done ()) then begin
        (* Advance to the next completion. When nothing is running, a
           start is always possible (no core exceeds the budget), so the
           running set is non-empty here. *)
        assert (!running <> []);
        let next =
          List.fold_left (fun acc r -> min acc r.finish) max_int !running
        in
        clock := next;
        running := List.filter (fun r -> r.finish > next) !running
      end
    done;
    Some { Rect_sched.placements = List.rev !placements; makespan = !makespan }
  end
