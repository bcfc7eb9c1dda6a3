module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Cost = Soctam_core.Cost
module Exact = Soctam_core.Exact
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile
module Power_sched = Soctam_sched.Power_sched
module Gantt = Soctam_sched.Gantt
module Pack = Soctam_pack.Pack
module Power_model = Soctam_power.Power_model
module Power_conflicts = Soctam_power.Power_conflicts
module Benchmarks = Soctam_soc.Benchmarks
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def

let s1 = Benchmarks.s1 ()
let problem = Problem.make s1 ~num_buses:2 ~total_width:16

let sample_arch =
  Architecture.make ~widths:[| 10; 6 |] ~assignment:[| 0; 1; 0; 1; 0; 1 |]

let test_profile_conservation () =
  (* The profile's energy equals Σ core power × duration. *)
  let sched = Rect_sched.of_architecture problem sample_arch in
  let profile = Profile.of_schedule problem sched in
  let expected =
    List.fold_left
      (fun acc (p : Rect_sched.placement) ->
        acc
        +. ((Soc.core s1 p.core).Core_def.power_mw
           *. float_of_int (p.finish - p.start)))
      0.0 sched.Rect_sched.placements
  in
  Alcotest.(check (float 1e-6)) "energy conserved" expected
    (Profile.energy profile);
  Alcotest.(check bool) "peak at most sum of all powers" true
    (Profile.peak profile <= Power_model.total_power s1 +. 1e-9);
  Alcotest.(check bool) "peak at least max core power" true
    (Profile.peak profile >= Power_model.max_core_power s1 -. 1e-9)

let test_profile_overlap () =
  (* Cores 0 and 1 alone on separate buses start together: the profile's
     first step carries both powers. *)
  let arch =
    Architecture.make ~widths:[| 8; 8 |] ~assignment:[| 0; 1; 0; 0; 0; 0 |]
  in
  let sched = Rect_sched.of_architecture problem arch in
  let profile = Profile.of_schedule problem sched in
  match profile with
  | first :: _ ->
      let p0 = (Soc.core s1 0).Core_def.power_mw in
      let p1 = (Soc.core s1 1).Core_def.power_mw in
      Alcotest.(check bool) "first step includes both cores" true
        (first.Profile.power_mw >= p0 +. p1 -. 1e-9)
  | [] -> Alcotest.fail "profile must be non-empty"

let test_stagger_respects_budget () =
  let p_max = Power_model.max_core_power s1 +. 1.0 in
  match Power_sched.stagger problem sample_arch ~p_max_mw:p_max with
  | None -> Alcotest.fail "budget admits every single core"
  | Some sched ->
      let profile = Profile.of_schedule problem sched in
      Alcotest.(check bool) "profile respects budget" true
        (Profile.respects ~p_max_mw:p_max profile);
      Alcotest.(check bool) "staggering can only delay" true
        (sched.Rect_sched.makespan >= Cost.test_time problem sample_arch)

let test_stagger_vacuous_budget () =
  let p_max = Power_model.total_power s1 +. 1.0 in
  match Power_sched.stagger problem sample_arch ~p_max_mw:p_max with
  | None -> Alcotest.fail "vacuous budget"
  | Some sched ->
      Alcotest.(check int) "no delay needed"
        (Cost.test_time problem sample_arch)
        sched.Rect_sched.makespan

let test_stagger_impossible () =
  match Power_sched.stagger problem sample_arch ~p_max_mw:1.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "single-core excess must be rejected"

(* One row per first wire, labelled with it: for an architecture, one
   row per bus; for a packing, one per distinct [wire_lo]. *)
let test_gantt_renders () =
  let sched = Rect_sched.of_architecture problem sample_arch in
  Alcotest.(check string) "architecture rows"
    "w0    |cc7552ccccces5378eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee|\n\
     w10   |bc2670bbbds953dddddddddddddddfs1196fffffffff                            |\n\
    \       0                                                                   32337 cycles\n"
    (Gantt.render problem sched);
  let narrow = Problem.make s1 ~num_buses:2 ~total_width:12 in
  Alcotest.(check string) "packing rows"
    "w0    |es5378eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeds953ddddcc7552ccfs1196fffa   |\n\
     w8    |                                                           bc2670bbbbbbb|\n\
    \       0                                                                   37755 cycles\n"
    (Gantt.render narrow (Pack.greedy narrow));
  let profile = Profile.of_schedule problem sched in
  let pg = Gantt.render_profile profile in
  Alcotest.(check bool) "profile chart non-empty" true (String.length pg > 0)

let prop_schedules_always_valid =
  QCheck.Test.make ~name:"optimal architectures expand to valid schedules"
    ~count:40 Gen.spec_arbitrary (fun spec ->
      let p = Gen.problem_of_spec spec in
      match (Exact.solve p).Exact.solution with
      | None -> true
      | Some (arch, t) ->
          let sched = Rect_sched.of_architecture p arch in
          Rect_sched.validate p sched = Ok () && sched.Rect_sched.makespan = t)

let prop_stagger_budget_respected =
  QCheck.Test.make ~name:"staggered schedules respect any feasible budget"
    ~count:40 Gen.spec_arbitrary (fun spec ->
      let p = Gen.problem_of_spec ~constrained:false spec in
      let soc = Problem.soc p in
      match (Exact.solve p).Exact.solution with
      | None -> true
      | Some (arch, _) -> (
          let p_max = Power_model.max_core_power soc +. 5.0 in
          match Power_sched.stagger p arch ~p_max_mw:p_max with
          | None -> false
          | Some sched ->
              Rect_sched.validate p sched = Ok ()
              && Profile.respects ~p_max_mw:p_max
                   (Profile.of_schedule p sched)))

let suite =
  [ Alcotest.test_case "profile conservation" `Quick
      test_profile_conservation;
    Alcotest.test_case "profile overlap" `Quick test_profile_overlap;
    Alcotest.test_case "stagger respects budget" `Quick
      test_stagger_respects_budget;
    Alcotest.test_case "stagger vacuous budget" `Quick
      test_stagger_vacuous_budget;
    Alcotest.test_case "stagger impossible" `Quick test_stagger_impossible;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    QCheck_alcotest.to_alcotest prop_schedules_always_valid;
    QCheck_alcotest.to_alcotest prop_stagger_budget_respected ]
