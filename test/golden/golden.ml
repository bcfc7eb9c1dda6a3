(* Golden answers: prints one line per solved cell, answers only —
   feasible, optimal, test time and the architecture or packing —
   never timings or search counters. The runtest alias diffs this
   output against answers.expected; a change that moves an answer on
   purpose re-records the file with [dune promote] and says why.

   The MILP keeps its test times and optimal flags across a search
   change but not which of several equal optima it returns, so a
   change to its search can move an ilp line's widths and assignment
   without moving its test time. *)

module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks
module Power_model = Soctam_power.Power_model
module Power_conflicts = Soctam_power.Power_conflicts
module Profile = Soctam_sched.Profile
module Power_sched = Soctam_sched.Power_sched
module Rect_sched = Soctam_sched.Rect_sched
module Pack = Soctam_pack.Pack
module Sweep = Soctam_engine.Sweep
module Protocol = Soctam_service.Protocol

let ints a = String.concat "," (List.map string_of_int (Array.to_list a))
let opt_float = function None -> "-" | Some v -> Printf.sprintf "%g" v

let placements (packing : Rect_sched.t) =
  String.concat " "
    (List.map
       (fun (p : Rect_sched.placement) ->
         Printf.sprintf "%d:%d@%d[%d,%d)" p.core p.width p.wire_lo p.start
           p.finish)
       packing.placements)

let answer (row : Sweep.row) =
  let feasible, time, shape =
    match (row.solution, row.packing) with
    | Some (arch, t), _ ->
        ( true,
          string_of_int t,
          Printf.sprintf "widths=%s assign=%s" (ints arch.Architecture.widths)
            (ints arch.Architecture.assignment) )
    | None, Some p -> (true, string_of_int p.makespan, placements p)
    | None, None -> (false, "-", "-")
  in
  Printf.sprintf "feasible=%b optimal=%b T=%s %s" feasible row.optimal time
    shape

let solver_of_name ~p_max = function
  | "exact" -> Sweep.Exact
  | "ilp" ->
      Sweep.Ilp
        { time_limit_s = None; presolve = true; cuts = true; seed = true }
  | "heuristic" -> Sweep.Heuristic
  | "race" -> Sweep.Race
  | "pack" -> Sweep.Pack { p_max_mw = p_max }
  | name -> invalid_arg name

let cell ~solver ~spec ~model ~buses ~widths ~d_max ~p_max =
  let soc = Result.get_ok (Protocol.resolve_soc (Protocol.Named spec)) in
  let time_model = Result.get_ok (Protocol.model_of_string model) in
  let constraints =
    Protocol.constraints_of ~d_max_mm:d_max ~p_max_mw:p_max soc
  in
  List.iter2
    (fun w c ->
      Printf.printf "%s %s %s b=%d W=%d d_max=%s p_max=%s | %s\n" solver spec
        model buses w (opt_float d_max) (opt_float p_max)
        (answer (Sweep.solve_one c)))
    widths
    (Sweep.cells ~time_model ~constraints
       ~solver:(solver_of_name ~p_max solver)
       soc ~num_buses:buses ~widths)

(* Each SOC with a routing budget and a power budget that leave the
   partition model feasible at the widths below. *)
let partition_socs =
  [ ("s1", 3.5, 150.0); ("s2", 4.5, 1600.0); ("rnd:7:8", 3.5, 1600.0);
    ("rnd:21:6", 3.0, 900.0) ]

let partition_cells () =
  List.iter
    (fun (spec, d, p) ->
      List.iter
        (fun model ->
          List.iter
            (fun (d_max, p_max) ->
              List.iter
                (fun (solver, shapes) ->
                  List.iter
                    (fun (buses, widths) ->
                      cell ~solver ~spec ~model ~buses ~widths ~d_max ~p_max)
                    shapes)
                [ ("exact", [ (2, [ 12; 24 ]); (3, [ 12; 24 ]) ]);
                  (* The MILP at three buses and 24 wires would take
                     most of the run on its own. *)
                  ("ilp", [ (2, [ 12; 24 ]); (3, [ 12 ]) ]);
                  ("heuristic", [ (2, [ 12; 24 ]); (3, [ 12; 24 ]) ]);
                  ("race", [ (2, [ 12; 24 ]); (3, [ 12; 24 ]); (4, [ 32 ]) ])
                ])
            [ (None, None); (Some d, None); (None, Some p); (Some d, Some p) ])
        [ "serialization"; "scan" ])
    partition_socs;
  (* Races past the DP probe's budget, so the DP resume certifies and
     the canonical re-derivation walks thousands of partitions. *)
  List.iter
    (fun (spec, buses, w, d_max, p_max) ->
      cell ~solver:"race" ~spec ~model:"serialization" ~buses ~widths:[ w ]
        ~d_max ~p_max)
    [ ("rnd:7:20", 5, 48, None, None);
      ("rnd:7:20", 5, 48, Some 5.0, Some 2000.0);
      ("rnd:7:32", 5, 56, None, None) ]

(* The exact packer's search grows fast with cores and wires: these
   cells stay small enough to certify in milliseconds. *)
let pack_cells () =
  List.iter
    (fun (spec, model, widths, p_maxes) ->
      List.iter
        (fun p_max ->
          cell ~solver:"pack" ~spec ~model ~buses:2 ~widths ~d_max:None ~p_max)
        p_maxes)
    [ ("rnd:5:4", "serialization", [ 4; 6 ], [ None; Some 600.0 ]);
      ("rnd:5:4", "scan", [ 4; 6 ], [ None; Some 600.0 ]);
      ("rnd:21:5", "serialization", [ 4 ], [ Some 600.0 ]);
      ("rnd:21:5", "scan", [ 4 ], [ None; Some 600.0 ]) ]

let profile_line name (profile : Profile.step list) =
  Printf.printf "%s peak=%h steps=%s\n" name (Profile.peak profile)
    (String.concat " "
       (List.map
          (fun (s : Profile.step) ->
            Printf.sprintf "[%d,%d)%h" s.from_cycle s.to_cycle s.power_mw)
          profile))

(* Bench F2: the exact optimum's power profile on S2, before and after
   the co-assignment pairs of a 45% budget. *)
let f2 () =
  let soc = Benchmarks.s2 () in
  let p_max = 0.45 *. Power_model.total_power soc in
  List.iter
    (fun (name, constraints) ->
      let problem =
        Problem.make soc ~constraints ~num_buses:3 ~total_width:24
      in
      match (Exact.solve problem).Exact.solution with
      | None -> Printf.printf "F2 %s infeasible\n" name
      | Some (arch, _) ->
          profile_line ("F2 " ^ name)
            (Profile.of_schedule problem
               (Rect_sched.of_architecture problem arch)))
    [ ("unconstrained", Problem.no_constraints);
      ( "co-assigned",
        { Problem.exclusion_pairs = [];
          co_pairs = Power_conflicts.co_assignment_pairs soc ~p_max_mw:p_max }
      ) ]

(* Bench A5: staggered start times under a budget, for the
   unconstrained optimum on S2. *)
let a5 () =
  let soc = Benchmarks.s2 () in
  let problem = Problem.make soc ~num_buses:3 ~total_width:24 in
  let arch =
    match (Exact.solve problem).Exact.solution with
    | Some (arch, _) -> arch
    | None -> assert false
  in
  List.iter
    (fun frac ->
      let p_max = frac *. Power_model.total_power soc in
      match Power_sched.stagger problem arch ~p_max_mw:p_max with
      | None -> Printf.printf "A5 %g impossible\n" frac
      | Some schedule ->
          let starts =
            List.sort compare
              (List.map
                 (fun (p : Rect_sched.placement) -> (p.core, p.start, p.finish))
                 schedule.Rect_sched.placements)
          in
          Printf.printf "A5 %g makespan=%d tests=%s\n" frac schedule.makespan
            (String.concat " "
               (List.map
                  (fun (c, s, f) -> Printf.sprintf "%d[%d,%d)" c s f)
                  starts));
          profile_line
            (Printf.sprintf "A5 %g" frac)
            (Profile.of_schedule problem schedule))
    [ 0.8; 0.6; 0.5; 0.45; 0.4; 0.35 ]

(* Bench B1's path: Pack.solve seeded with the fixed-bus optimum, here
   under an envelope, so the seed passes through greedy's envelope
   filter. *)
let seeded_pack () =
  List.iter
    (fun (spec, w, factor) ->
      let soc = Result.get_ok (Protocol.resolve_soc (Protocol.Named spec)) in
      let problem = Problem.make soc ~num_buses:2 ~total_width:w in
      let optimum = (Exact.solve problem).Exact.solution in
      let p_max_mw = Pack.effective_budget problem ~p_max_mw:0.0 *. factor in
      let r =
        Pack.solve ~p_max_mw ~node_budget:20_000
          ~seed_archs:(Option.to_list (Option.map fst optimum))
          problem
      in
      Printf.printf "B1 %s W=%d p_max=%h | optimal=%b T=%s %s\n" spec w
        p_max_mw r.Pack.optimal
        (match r.Pack.packing with
        | Some p -> string_of_int p.makespan
        | None -> "-")
        (match r.Pack.packing with Some p -> placements p | None -> "-"))
    [ ("s1", 8, 1.5); ("s1", 16, 2.5); ("rnd:5:4", 6, 1.2) ]

let () =
  partition_cells ();
  pack_cells ();
  f2 ();
  a5 ();
  seeded_pack ()
