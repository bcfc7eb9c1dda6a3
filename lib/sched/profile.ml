module Problem = Soctam_core.Problem
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

type step = { from_cycle : int; to_cycle : int; power_mw : float }

let of_schedule problem (sched : Rect_sched.t) =
  let soc = Problem.soc problem in
  let events = ref [] in
  List.iter
    (fun (r : Rect_sched.placement) ->
      let p = (Soc.core soc r.core).Core_def.power_mw in
      events := (r.start, p) :: (r.finish, -.p) :: !events)
    sched.placements;
  let sorted = List.sort compare !events in
  let rec build current_t current_p acc = function
    | [] -> List.rev acc
    | (t, dp) :: rest ->
        let acc =
          if t > current_t then
            { from_cycle = current_t; to_cycle = t; power_mw = current_p }
            :: acc
          else acc
        in
        build t (current_p +. dp) acc rest
  in
  match sorted with
  | [] -> []
  | (t0, _) :: _ ->
      let raw = build t0 0.0 [] sorted in
      (* Merge adjacent steps with equal power (within rounding). *)
      let rec merge = function
        | s1 :: s2 :: rest
          when Float.abs (s1.power_mw -. s2.power_mw) < 1e-9
               && s1.to_cycle = s2.from_cycle ->
            merge ({ s1 with to_cycle = s2.to_cycle } :: rest)
        | s :: rest -> s :: merge rest
        | [] -> []
      in
      merge raw

let peak profile =
  List.fold_left (fun acc s -> Float.max acc s.power_mw) 0.0 profile

let respects ~p_max_mw profile = peak profile <= p_max_mw +. 1e-9

let energy profile =
  List.fold_left
    (fun acc s ->
      acc +. (s.power_mw *. float_of_int (s.to_cycle - s.from_cycle)))
    0.0 profile
