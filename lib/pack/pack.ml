module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Test_time = Soctam_soc.Test_time
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile

type candidate = { width : int; time : int }

let candidates problem ~core =
  let w = Problem.total_width problem in
  let acc = ref [] in
  let best = ref max_int in
  for k = 1 to w do
    let t = Problem.time problem ~core ~width:k in
    if t < !best then begin
      best := t;
      acc := { width = k; time = t } :: !acc
    end
  done;
  List.rev !acc

let core_power problem core =
  (Soc.core (Problem.soc problem) core).Core_def.power_mw

let effective_budget problem ~p_max_mw =
  let n = Problem.num_cores problem in
  let hungriest = ref 0.0 in
  for i = 0 to n - 1 do
    hungriest := Float.max !hungriest (core_power problem i)
  done;
  Float.max p_max_mw !hungriest

(* Per-core minima over the staircase. *)
let min_time cands = List.fold_left (fun a c -> min a c.time) max_int cands

let min_area cands =
  List.fold_left (fun a c -> min a (c.width * c.time)) max_int cands

let lower_bound ?p_max_mw problem =
  let n = Problem.num_cores problem in
  let base = Rect_sched.lower_bound problem in
  let cands = Array.init n (fun i -> candidates problem ~core:i) in
  let mt = Array.map min_time cands in
  let co =
    List.fold_left
      (fun acc (a, b) -> max acc (mt.(a) + mt.(b)))
      0
      (Problem.constraints problem).Problem.co_pairs
  in
  let energy =
    match p_max_mw with
    | None -> 0
    | Some p ->
        let budget = effective_budget problem ~p_max_mw:p in
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          total := !total +. (core_power problem i *. float_of_int mt.(i))
        done;
        int_of_float (Float.ceil (!total /. budget -. 1e-9))
  in
  max base (max co energy)

(* Instantaneous power of [placements] at the event points inside
   [start, finish), plus [power], must stay within [budget]. Event
   points are [start] itself and every placement start strictly
   inside the interval — power only changes there. *)
let envelope_ok problem placements ~start ~finish ~power ~budget =
  let active t =
    List.fold_left
      (fun acc (p : Rect_sched.placement) ->
        if p.start <= t && t < p.finish then acc +. core_power problem p.core
        else acc)
      0.0 placements
  in
  let ok t = active t +. power <= budget +. 1e-9 in
  ok start
  && List.for_all
       (fun (p : Rect_sched.placement) ->
         p.start <= start || p.start >= finish || ok p.start)
       placements

let validate ?p_max_mw problem packing =
  match Rect_sched.validate problem packing with
  | Error _ as e -> e
  | Ok () -> (
      match p_max_mw with
      | None -> Ok ()
      | Some p ->
          let budget = effective_budget problem ~p_max_mw:p in
          let peak = Profile.peak (Profile.of_schedule problem packing) in
          if peak <= budget +. 1e-9 then Ok ()
          else
            Error
              (Printf.sprintf "peak power %.3f mW exceeds budget %.3f mW"
                 peak budget))

(* Earliest finish event strictly after [after] — the retry point when
   a skyline position violates the envelope. Some placement is active
   past [after] whenever a violation occurs, so this always advances. *)
let next_finish placements ~after =
  List.fold_left
    (fun acc (p : Rect_sched.placement) ->
      if p.finish > after && p.finish < acc then p.finish else acc)
    max_int placements

(* ---------------------------------------------------------------- *)
(* Greedy heuristics                                                 *)
(* ---------------------------------------------------------------- *)

type ctx = {
  problem : Problem.t;
  total_width : int;
  cands : candidate list array;
  power : float array;
  partners : int list array;
  budget : float;  (* [infinity] when no envelope *)
}

let make_ctx ?p_max_mw problem =
  let n = Problem.num_cores problem in
  {
    problem;
    total_width = Problem.total_width problem;
    cands = Array.init n (fun i -> candidates problem ~core:i);
    power = Array.init n (fun i -> core_power problem i);
    partners = Rect_sched.co_partners problem;
    budget =
      (match p_max_mw with
      | None -> infinity
      | Some p -> effective_budget problem ~p_max_mw:p);
  }

(* Earliest envelope-respecting skyline position for a [width]-wide,
   [dur]-long rectangle starting no earlier than [floor_time]. *)
let place_one ctx free placements ~core ~width ~dur ~floor_time =
  let rec attempt floor =
    let x, s = Rect_sched.place_skyline free ~width ~floor_time:floor in
    if
      ctx.budget = infinity
      || envelope_ok ctx.problem placements ~start:s ~finish:(s + dur)
           ~power:ctx.power.(core) ~budget:ctx.budget
    then (x, s)
    else attempt (max (next_finish placements ~after:s) (s + 1))
  in
  attempt floor_time

(* Place cores in [order]; [widths_for core] lists the widths best-fit
   may choose between (singleton = fixed-width policy). *)
let run_policy ctx ~order ~widths_for =
  let free = Array.make ctx.total_width 0 in
  let placements = ref [] in
  let finish_of = Array.make (Array.length ctx.power) None in
  let makespan = ref 0 in
  Array.iter
    (fun core ->
      let floor_time =
        List.fold_left
          (fun acc p ->
            match finish_of.(p) with Some f -> max acc f | None -> acc)
          0 ctx.partners.(core)
      in
      let best = ref None in
      List.iter
        (fun (c : candidate) ->
          let x, s =
            place_one ctx free !placements ~core ~width:c.width ~dur:c.time
              ~floor_time
          in
          let key = (s + c.time, c.width, x) in
          match !best with
          | Some (k, _, _, _) when compare k key <= 0 -> ()
          | _ -> best := Some (key, c, x, s))
        (widths_for core);
      match !best with
      | None -> assert false
      | Some (_, c, wire_lo, start) ->
          let finish = start + c.time in
          for k = wire_lo to wire_lo + c.width - 1 do
            free.(k) <- finish
          done;
          finish_of.(core) <- Some finish;
          placements :=
            { Rect_sched.core; width = c.width; wire_lo; start; finish }
            :: !placements;
          makespan := max !makespan finish)
    order;
  let placements =
    List.sort
      (fun (a : Rect_sched.placement) (b : Rect_sched.placement) ->
        compare (a.start, a.wire_lo, a.core) (b.start, b.wire_lo, b.core))
      !placements
  in
  { Rect_sched.placements; makespan = !makespan }

let greedy ?p_max_mw ?(seed_archs = []) ?(should_stop = fun () -> false)
    ?(report = fun _ -> ()) problem =
  let ctx = make_ctx ?p_max_mw problem in
  let n = Problem.num_cores problem in
  let area_cand =
    Array.init n (fun i ->
        List.fold_left
          (fun best (c : candidate) ->
            if c.width * c.time < best.width * best.time then c else best)
          (List.hd ctx.cands.(i))
          ctx.cands.(i))
  in
  let mt = Array.map min_time ctx.cands in
  let sorted_by key =
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> compare (key b, a) (key a, b)) order;
    order
  in
  (* Diagonal length of the best-area rectangle, per the packing
     papers; squared to stay integral. *)
  let diag i =
    let c = area_cand.(i) in
    (c.width * c.width) + (c.time * c.time)
  in
  let orders =
    [ sorted_by diag;
      sorted_by (fun i -> mt.(i));
      sorted_by (fun i -> area_cand.(i).width * area_cand.(i).time) ]
  in
  let best = ref None in
  let consider (c : Rect_sched.t) =
    match !best with
    | Some (b : Rect_sched.t) when b.makespan <= c.makespan -> ()
    | _ ->
        best := Some c;
        report c
  in
  (* The first policy always runs so a packing is guaranteed even under
     an immediate stop; the rest poll [should_stop] between runs. *)
  let first = ref true in
  List.iter
    (fun order ->
      List.iter
        (fun widths_for ->
          if !first || not (should_stop ()) then begin
            first := false;
            consider (run_policy ctx ~order ~widths_for)
          end)
        [ (fun i -> ctx.cands.(i)); (fun i -> [ area_cand.(i) ]) ])
    orders;
  List.iter
    (fun arch ->
      if not (should_stop ()) then begin
        let packing = Rect_sched.of_architecture problem arch in
        if
          Profile.respects ~p_max_mw:ctx.budget
            (Profile.of_schedule problem packing)
        then consider packing
      end)
    seed_archs;
  match !best with Some best -> best | None -> assert false

(* ---------------------------------------------------------------- *)
(* Exact branch-and-bound                                            *)
(* ---------------------------------------------------------------- *)

type result = {
  packing : Rect_sched.t option;
  optimal : bool;
  nodes : int;
  lower_bound : int;
}

let exact ?p_max_mw ?(node_budget = max_int) ?(upper_bound = fun () -> None)
    ?(on_incumbent = fun _ -> ()) ?(should_stop = fun () -> false) problem =
  let ctx = make_ctx ?p_max_mw problem in
  let n = Problem.num_cores problem in
  let w = ctx.total_width in
  let cands = Array.map Array.of_list ctx.cands in
  let mt = Array.map min_time ctx.cands in
  let ma = Array.map min_area ctx.cands in
  let min_energy =
    Array.init n (fun i -> ctx.power.(i) *. float_of_int mt.(i))
  in
  let co_pairs = (Problem.constraints problem).Problem.co_pairs in
  let lb = lower_bound ?p_max_mw problem in
  let nodes = ref 0 in
  let exhausted = ref true in
  let best = ref None in
  let local_best = ref max_int in
  let cutoff () =
    let shared =
      match upper_bound () with None -> max_int | Some u -> u
    in
    min !local_best shared
  in
  (* Skipping an already-seen placement set is safe: the cutoff only
     tightens over time, so the earlier visit explored every completion
     the current one could. *)
  let seen = Hashtbl.create 4096 in
  let record placements makespan =
    if makespan < !local_best then begin
      local_best := makespan;
      let sorted =
        List.sort
          (fun (a : Rect_sched.placement) (b : Rect_sched.placement) ->
            compare (a.start, a.wire_lo, a.core) (b.start, b.wire_lo, b.core))
          placements
      in
      let packing = { Rect_sched.placements = sorted; makespan } in
      best := Some packing;
      on_incumbent packing
    end
  in
  let overlaps (p : Rect_sched.placement) ~x ~width ~start ~finish =
    start < p.finish && p.start < finish
    && x < p.wire_lo + p.width
    && p.wire_lo < x + width
  in
  let rec branch placed mask cur_max area_left energy_left =
    incr nodes;
    if should_stop () || !nodes > node_budget then exhausted := false
    else begin
      let cutoff = cutoff () in
      let placed_area =
        List.fold_left
          (fun acc (p : Rect_sched.placement) ->
            acc + (p.width * (p.finish - p.start)))
          0 placed
      in
      let node_lb = ref (max cur_max ((placed_area + area_left + w - 1) / w)) in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) = 0 then node_lb := max !node_lb mt.(i)
      done;
      if ctx.budget < infinity then begin
        let placed_energy =
          List.fold_left
            (fun acc (p : Rect_sched.placement) ->
              acc
              +. (ctx.power.(p.core) *. float_of_int (p.finish - p.start)))
            0.0 placed
        in
        node_lb :=
          max !node_lb
            (int_of_float
               (Float.ceil
                  ((placed_energy +. energy_left) /. ctx.budget -. 1e-9)))
      end;
      List.iter
        (fun (a, b) ->
          let unplaced i = mask land (1 lsl i) = 0 in
          match (unplaced a, unplaced b) with
          | true, true -> node_lb := max !node_lb (mt.(a) + mt.(b))
          | true, false | false, true ->
              let placed_one = if unplaced a then b else a in
              let waiting = if unplaced a then a else b in
              let p =
                List.find
                  (fun (p : Rect_sched.placement) -> p.core = placed_one)
                  placed
              in
              if p.start < mt.(waiting) then
                node_lb := max !node_lb (p.finish + mt.(waiting))
          | false, false -> ())
        co_pairs;
      if !node_lb >= cutoff then ()
      else if mask = (1 lsl n) - 1 then record placed cur_max
      else begin
        let key =
          List.sort compare
            (List.map
               (fun (p : Rect_sched.placement) ->
                 (p.core, p.width, p.wire_lo, p.start))
               placed)
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          let starts =
            List.sort_uniq compare
              (0
              :: List.map (fun (p : Rect_sched.placement) -> p.finish) placed)
          in
          let xs =
            List.sort_uniq compare
              (0
              :: List.map
                   (fun (p : Rect_sched.placement) -> p.wire_lo + p.width)
                   placed)
          in
          for core = 0 to n - 1 do
            if mask land (1 lsl core) = 0 then
              Array.iter
                (fun (c : candidate) ->
                  List.iter
                    (fun start ->
                      let finish = start + c.time in
                      List.iter
                        (fun x ->
                          if x + c.width <= w then begin
                            let free =
                              (not
                                 (List.exists
                                    (fun p ->
                                      overlaps p ~x ~width:c.width ~start
                                        ~finish)
                                    placed))
                              && List.for_all
                                   (fun partner ->
                                     match
                                       List.find_opt
                                         (fun (p : Rect_sched.placement) ->
                                           p.core = partner)
                                         placed
                                     with
                                     | Some p ->
                                         finish <= p.start
                                         || p.finish <= start
                                     | None -> true)
                                   ctx.partners.(core)
                              && (ctx.budget = infinity
                                 || envelope_ok problem placed ~start ~finish
                                      ~power:ctx.power.(core)
                                      ~budget:ctx.budget)
                            in
                            if free then
                              branch
                                ({ Rect_sched.core; width = c.width;
                                   wire_lo = x; start; finish }
                                :: placed)
                                (mask lor (1 lsl core))
                                (max cur_max finish)
                                (area_left - ma.(core))
                                (energy_left -. min_energy.(core))
                          end)
                        xs)
                    starts)
                cands.(core)
          done
        end
      end
    end
  in
  let area0 = Array.fold_left ( + ) 0 ma in
  let energy0 = Array.fold_left ( +. ) 0.0 min_energy in
  branch [] 0 0 area0 energy0;
  { packing = !best; optimal = !exhausted; nodes = !nodes; lower_bound = lb }

let solve ?p_max_mw ?node_budget ?seed_archs problem =
  let seed = greedy ?p_max_mw ?seed_archs problem in
  let r =
    exact ?p_max_mw ?node_budget
      ~upper_bound:(fun () -> Some seed.Rect_sched.makespan)
      problem
  in
  match r.packing with
  | Some _ -> r
  | None -> { r with packing = Some seed }
