(* Bring your own cores: build a custom SOC programmatically, use the
   scan-distribution (wrapper-aware) test-time model, apply a power
   budget, and inspect the schedule and its power profile.

   Run with: dune exec examples/custom_soc.exe *)

module Core_def = Soctam_soc.Core_def
module Soc = Soctam_soc.Soc
module Test_time = Soctam_soc.Test_time
module Problem = Soctam_core.Problem
module Exact = Soctam_core.Exact
module Power_conflicts = Soctam_power.Power_conflicts
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile
module Power_sched = Soctam_sched.Power_sched
module Gantt = Soctam_sched.Gantt

let core ~name ~inputs ~outputs ~ff ~chains ~patterns ~power =
  let scan =
    if ff = 0 then Core_def.Combinational
    else Core_def.Scan { flip_flops = ff; chains }
  in
  Core_def.make ~name ~inputs ~outputs ~scan ~patterns ~power_mw:power
    ~dim_mm:(1.0, 1.0)

let () =
  (* A small imaginary SOC: a CPU, a DSP, two peripherals and a ROM. *)
  let soc =
    Soc.make ~name:"mychip"
      [ core ~name:"cpu" ~inputs:64 ~outputs:64 ~ff:1200 ~chains:8
          ~patterns:150 ~power:700.0;
        core ~name:"dsp" ~inputs:48 ~outputs:32 ~ff:800 ~chains:4
          ~patterns:120 ~power:520.0;
        core ~name:"uart" ~inputs:12 ~outputs:10 ~ff:60 ~chains:1
          ~patterns:40 ~power:45.0;
        core ~name:"spi" ~inputs:8 ~outputs:8 ~ff:40 ~chains:1 ~patterns:35
          ~power:30.0;
        core ~name:"rom_bist" ~inputs:20 ~outputs:16 ~ff:0 ~chains:0
          ~patterns:64 ~power:210.0 ]
  in

  (* Power budget: the CPU and DSP together would exceed 1000 mW, so they
     must be serialized (same bus). *)
  let p_max = 1000.0 in
  let co_pairs = Power_conflicts.co_assignment_pairs soc ~p_max_mw:p_max in
  Printf.printf "power budget %.0f mW forces %d core pair(s) onto one bus\n"
    p_max (List.length co_pairs);

  let problem =
    Problem.make ~time_model:Test_time.Scan_distribution
      ~constraints:{ Problem.exclusion_pairs = []; co_pairs }
      soc ~num_buses:2 ~total_width:12
  in
  match (Exact.solve problem).Exact.solution with
  | None -> print_endline "infeasible"
  | Some (arch, test_time) ->
      Printf.printf "optimal test time under the budget: %d cycles\n\n"
        test_time;
      let sched = Rect_sched.of_architecture problem arch in
      print_string (Gantt.render problem sched);
      print_newline ();
      let profile = Profile.of_schedule problem sched in
      Printf.printf "power profile (peak %.0f mW <= budget? %b):\n"
        (Profile.peak profile)
        (Profile.respects ~p_max_mw:p_max profile);
      print_string (Gantt.render_profile profile);

      (* Alternative strategy (extension): drop the co-assignment
         constraint and stagger start times instead. *)
      let relaxed =
        Problem.make ~time_model:Test_time.Scan_distribution soc
          ~num_buses:2 ~total_width:12
      in
      (match (Exact.solve relaxed).Exact.solution with
      | Some (free_arch, free_time) -> (
          match Power_sched.stagger relaxed free_arch ~p_max_mw:p_max with
          | Some staggered ->
              let staggered_profile = Profile.of_schedule relaxed staggered in
              Printf.printf
                "\nstaggered alternative: unconstrained optimum %d, \
                 power-legal staggered makespan %d (peak %.0f mW)\n"
                free_time staggered.Rect_sched.makespan
                (Profile.peak staggered_profile)
          | None -> ())
      | None -> ())
