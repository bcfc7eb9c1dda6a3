(* Benchmark harness: regenerates every table and figure of the
   reproduced evaluation (see DESIGN.md section 3 for the experiment
   index). Each section prints the experiment id, the workload and the
   measured rows; EXPERIMENTS.md records the comparison against the
   paper's reported shapes.

   Run with: dune exec bench/main.exe
   Options:
     --quick        reduced width ranges / skip the slow ablations (CI)
     --sweep-only   run only the E8/E9 sweep + observability sections
     --jobs N       domains for the parallel side of E8 (0 = all cores)
     --json PATH    write the E8, E9, E11, E12 and E13 measurements as JSON
     --service-json PATH  write the E10 and E14 measurements as JSON
     --trace PATH   record the E8 sweeps and write a Chrome trace *)

module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Cost = Soctam_core.Cost
module Exact = Soctam_core.Exact
module Ilp = Soctam_core.Ilp_formulation
module Heuristics = Soctam_core.Heuristics
module Annealing = Soctam_core.Annealing
module Dp_assign = Soctam_core.Dp_assign
module Width_dp = Soctam_core.Width_dp
module Verify = Soctam_core.Verify
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Test_time = Soctam_soc.Test_time
module Benchmarks = Soctam_soc.Benchmarks
module Floorplan = Soctam_layout.Floorplan
module Routing = Soctam_layout.Routing
module Layout_conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts
module Power_model = Soctam_power.Power_model
module Profile = Soctam_sched.Profile
module Power_sched = Soctam_sched.Power_sched
module Gantt = Soctam_sched.Gantt
module Rect_sched = Soctam_sched.Rect_sched
module Pack = Soctam_pack.Pack
module Table = Soctam_report.Table
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Race = Soctam_engine.Race
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock
module Trace = Soctam_obs.Trace
module Json = Soctam_obs.Json
module Service = Soctam_service.Service
module Protocol = Soctam_service.Protocol
module Metrics = Soctam_service.Metrics
module Hist = Soctam_obs.Hist
module Log = Soctam_obs.Log
module Store = Soctam_store.Store

let quick = Array.exists (( = ) "--quick") Sys.argv
let sweep_only = Array.exists (( = ) "--sweep-only") Sys.argv

let flag_value name =
  let value = ref None in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then
        value := Some Sys.argv.(i + 1))
    Sys.argv;
  !value

let json_path = flag_value "--json"
let service_json_path = flag_value "--service-json"
let trace_path = flag_value "--trace"

let jobs =
  match flag_value "--jobs" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some 0 | None | Some _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* [pick full reduced] selects the workload for the current mode. *)
let pick full reduced = if quick then reduced else full

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n%!" id title

let fmt_time_opt = function
  | Some t -> string_of_int t
  | None -> "infeasible"

(* Exact solve with wall-clock measurement; also verifies the result. *)
let exact_solve problem =
  let start = Clock.now_s () in
  let r = Exact.solve problem in
  let elapsed = Clock.elapsed_s ~since:start in
  (match r.Exact.solution with
  | Some (arch, t) -> (
      match Verify.check problem arch ~claimed_time:t with
      | Ok () -> ()
      | Error msg -> Printf.printf "!! verification failed: %s\n" msg)
  | None -> ());
  (r, elapsed)

let ilp_solve ?formulation ?symmetry_breaking ?time_limit_s problem =
  let r = Ilp.solve ?formulation ?symmetry_breaking ?time_limit_s problem in
  (match r.Ilp.solution with
  | Some (arch, t) -> (
      match Verify.check problem arch ~claimed_time:t with
      | Ok () -> ()
      | Error msg -> Printf.printf "!! verification failed: %s\n" msg)
  | None -> ());
  r

let check_agreement ~label exact_t ilp_r =
  let ilp_t =
    match ilp_r.Ilp.solution with Some (_, t) -> Some t | None -> None
  in
  if ilp_r.Ilp.optimal && ilp_t <> exact_t then
    Printf.printf "!! %s: ILP (%s) and exact (%s) DISAGREE\n" label
      (fmt_time_opt ilp_t) (fmt_time_opt exact_t)

(* ------------------------------------------------------------------ *)
(* E1: benchmark core test data.                                       *)

let table_e1 () =
  section "E1" "benchmark SOC core test data (Table 1)";
  let dump soc =
    Printf.printf "SOC %s:\n" (Soc.name soc);
    let rows =
      Soc.fold
        (fun acc i core ->
          acc
          @ [ [ string_of_int i;
                core.Core_def.name;
                string_of_int core.Core_def.inputs;
                string_of_int core.Core_def.outputs;
                string_of_int (Core_def.flip_flops core);
                string_of_int (Core_def.chains core);
                string_of_int core.Core_def.patterns;
                Table.fmt_float ~decimals:0 core.Core_def.power_mw;
                string_of_int (Test_time.native_width core);
                string_of_int (Test_time.base_cycles core) ] ])
        [] soc
    in
    print_string
      (Table.render
         ~headers:
           [ "#"; "core"; "in"; "out"; "ff"; "chains"; "patterns"; "mW";
             "l_i"; "tau_i" ]
         rows);
    print_newline ()
  in
  dump (Benchmarks.s1 ());
  dump (Benchmarks.s2 ())

(* ------------------------------------------------------------------ *)
(* E2-E4: optimal test time vs. total TAM width (Tables 2-4).          *)

let width_sweep ~id ~soc ~num_buses ~widths ~ilp_time_limit =
  section id
    (Printf.sprintf
       "optimal test time vs total width, SOC %s, %d buses" (Soc.name soc)
       num_buses);
  let rows =
    List.map
      (fun w ->
        let problem = Problem.make soc ~num_buses ~total_width:w in
        let exact, exact_s = exact_solve problem in
        let exact_t =
          match exact.Exact.solution with
          | Some (_, t) -> Some t
          | None -> None
        in
        let ilp = ilp_solve ~time_limit_s:ilp_time_limit problem in
        check_agreement ~label:(Printf.sprintf "%s W=%d" id w) exact_t ilp;
        let widths_str =
          match exact.Exact.solution with
          | Some (arch, _) ->
              String.concat "+"
                (List.map string_of_int
                   (Array.to_list arch.Architecture.widths))
          | None -> "-"
        in
        [ string_of_int w;
          fmt_time_opt exact_t;
          widths_str;
          Table.fmt_float ~decimals:3 exact_s;
          (match ilp.Ilp.solution with
          | Some (_, t) ->
              if ilp.Ilp.optimal then string_of_int t
              else string_of_int t ^ "*"
          | None -> if ilp.Ilp.optimal then "infeasible" else "t/o");
          string_of_int ilp.Ilp.stats.Ilp.bb_nodes;
          Table.fmt_float ilp.Ilp.stats.Ilp.elapsed_s ])
      widths
  in
  print_string
    (Table.render
       ~headers:
         [ "W"; "optimal T"; "widths"; "exact s"; "ILP T"; "ILP nodes";
           "ILP s" ]
       rows);
  print_endline "(* = ILP budget expired; best found shown)"

let table_e2 () =
  width_sweep ~id:"E2" ~soc:(Benchmarks.s1 ()) ~num_buses:2
    ~widths:(pick [ 16; 20; 24; 28; 32 ] [ 16; 24 ]) ~ilp_time_limit:30.0

let table_e3 () =
  width_sweep ~id:"E3" ~soc:(Benchmarks.s1 ()) ~num_buses:3
    ~widths:(pick [ 16; 20; 24; 28; 32 ] [ 16; 24 ]) ~ilp_time_limit:30.0

let table_e4 () =
  width_sweep ~id:"E4a" ~soc:(Benchmarks.s2 ()) ~num_buses:2
    ~widths:[ 24; 32; 40; 48 ] ~ilp_time_limit:45.0;
  width_sweep ~id:"E4b" ~soc:(Benchmarks.s2 ()) ~num_buses:3
    ~widths:[ 24; 32; 40; 48 ] ~ilp_time_limit:90.0

(* ------------------------------------------------------------------ *)
(* E5: place-and-route constraints (Table 5).                          *)

let table_e5 () =
  section "E5"
    "effect of place-and-route constraints (routing budget sweep)";
  let soc = Benchmarks.s2 () in
  let fp = Floorplan.place soc in
  let num_buses = 3 and total_width = 24 in
  Printf.printf
    "SOC S2, %d buses, W=%d; budget = distance quantile of the floorplan\n\n"
    num_buses total_width;
  let rows =
    List.map
      (fun q ->
        let d_max = Layout_conflicts.distance_quantile fp q in
        let exclusion_pairs =
          Layout_conflicts.exclusion_pairs fp ~d_max_mm:d_max
        in
        let problem =
          Problem.make soc
            ~constraints:{ Problem.exclusion_pairs; co_pairs = [] }
            ~num_buses ~total_width
        in
        let exact, exact_s = exact_solve problem in
        let exact_t =
          match exact.Exact.solution with Some (_, t) -> Some t | None -> None
        in
        let ilp = ilp_solve ~time_limit_s:30.0 problem in
        check_agreement ~label:(Printf.sprintf "E5 q=%.2f" q) exact_t ilp;
        let wire =
          match exact.Exact.solution with
          | Some (arch, _) ->
              let w =
                Routing.wiring fp
                  ~assignment:arch.Architecture.assignment
                  ~widths:arch.Architecture.widths
              in
              Table.fmt_float ~decimals:1 w.Routing.total_mm
          | None -> "-"
        in
        [ Table.fmt_float q;
          Table.fmt_float d_max;
          string_of_int (List.length exclusion_pairs);
          fmt_time_opt exact_t;
          wire;
          Table.fmt_float ~decimals:3 exact_s ])
      [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5 ]
  in
  print_string
    (Table.render
       ~headers:
         [ "quantile"; "d_max mm"; "excl pairs"; "optimal T"; "trunk mm";
           "exact s" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E6: power constraints (Table 6).                                    *)

let table_e6 () =
  section "E6" "effect of power constraints (power budget sweep)";
  let soc = Benchmarks.s2 () in
  let num_buses = 3 and total_width = 24 in
  let total = Power_model.total_power soc in
  Printf.printf "SOC S2, %d buses, W=%d; total core power %.0f mW\n\n"
    num_buses total_width total;
  let rows =
    List.map
      (fun frac ->
        let p_max = frac *. total in
        let co_pairs =
          Power_conflicts.co_assignment_pairs soc ~p_max_mw:p_max
        in
        let problem =
          Problem.make soc
            ~constraints:{ Problem.exclusion_pairs = []; co_pairs }
            ~num_buses ~total_width
        in
        let exact, exact_s = exact_solve problem in
        let exact_t =
          match exact.Exact.solution with Some (_, t) -> Some t | None -> None
        in
        let ilp = ilp_solve ~time_limit_s:30.0 problem in
        check_agreement ~label:(Printf.sprintf "E6 f=%.2f" frac) exact_t ilp;
        let peak =
          match exact.Exact.solution with
          | Some (arch, _) ->
              Table.fmt_float ~decimals:0
                (Power_model.architecture_peak soc
                   ~assignment:arch.Architecture.assignment ~num_buses)
          | None -> "-"
        in
        [ Table.fmt_float frac;
          Table.fmt_float ~decimals:0 p_max;
          string_of_int (List.length co_pairs);
          fmt_time_opt exact_t;
          peak;
          Table.fmt_float ~decimals:3 exact_s ])
      [ 1.0; 0.8; 0.7; 0.6; 0.5; 0.45; 0.4 ]
  in
  print_string
    (Table.render
       ~headers:
         [ "fraction"; "P_max mW"; "co pairs"; "optimal T"; "arch peak mW";
           "exact s" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E7: combined constraints (Table 7).                                 *)

let table_e7 () =
  section "E7" "combined place-and-route + power constraints";
  let soc = Benchmarks.s2 () in
  let fp = Floorplan.place soc in
  let num_buses = 3 and total_width = 24 in
  let total = Power_model.total_power soc in
  let rows =
    List.concat_map
      (fun q ->
        List.map
          (fun frac ->
            let d_max = Layout_conflicts.distance_quantile fp q in
            let exclusion_pairs =
              Layout_conflicts.exclusion_pairs fp ~d_max_mm:d_max
            in
            let co_pairs =
              Power_conflicts.co_assignment_pairs soc
                ~p_max_mw:(frac *. total)
            in
            let problem =
              Problem.make soc
                ~constraints:{ Problem.exclusion_pairs; co_pairs }
                ~num_buses ~total_width
            in
            let exact, _ = exact_solve problem in
            [ Table.fmt_float q;
              Table.fmt_float frac;
              string_of_int (List.length exclusion_pairs);
              string_of_int (List.length co_pairs);
              (match exact.Exact.solution with
              | Some (_, t) -> string_of_int t
              | None -> "infeasible") ])
          [ 1.0; 0.6; 0.45 ])
      [ 1.0; 0.8; 0.6 ]
  in
  print_string
    (Table.render
       ~headers:[ "layout q"; "power frac"; "excl"; "co"; "optimal T" ]
       rows)

(* ------------------------------------------------------------------ *)
(* F1: test time vs width curves.                                      *)

let figure_f1 () =
  section "F1" "test time vs total width curves (figure)";
  let socs = [ Benchmarks.s1 (); Benchmarks.s2 () ] in
  List.iter
    (fun soc ->
      Printf.printf "SOC %s:\n" (Soc.name soc);
      let widths = List.init 12 (fun k -> 4 + (4 * k)) in
      let headers =
        "W" :: List.map (fun nb -> Printf.sprintf "T(nb=%d)" nb) [ 1; 2; 3 ]
      in
      let rows =
        List.map
          (fun w ->
            string_of_int w
            :: List.map
                 (fun nb ->
                   if w < nb then "-"
                   else
                     let problem =
                       Problem.make soc ~num_buses:nb ~total_width:w
                     in
                     match (Exact.solve problem).Exact.solution with
                     | Some (_, t) -> string_of_int t
                     | None -> "-")
                 [ 1; 2; 3 ])
          widths
      in
      print_string (Table.render ~headers rows);
      print_newline ())
    socs

(* ------------------------------------------------------------------ *)
(* F2: power profile of a schedule before/after power constraints.     *)

let figure_f2 () =
  section "F2" "power profile before/after power constraints (figure)";
  let soc = Benchmarks.s2 () in
  let num_buses = 3 and total_width = 24 in
  let total = Power_model.total_power soc in
  let plot name constraints =
    let problem = Problem.make soc ~constraints ~num_buses ~total_width in
    match (Exact.solve problem).Exact.solution with
    | None -> Printf.printf "%s: infeasible\n" name
    | Some (arch, t) ->
        let profile =
          Profile.of_schedule problem (Rect_sched.of_architecture problem arch)
        in
        Printf.printf "%s: T=%d, schedule peak %.0f mW\n" name t
          (Profile.peak profile);
        print_string (Gantt.render_profile ~rows:8 profile);
        print_newline ()
  in
  plot "unconstrained" Problem.no_constraints;
  let p_max = 0.45 *. total in
  plot
    (Printf.sprintf "P_max = %.0f mW" p_max)
    { Problem.exclusion_pairs = [];
      co_pairs = Power_conflicts.co_assignment_pairs soc ~p_max_mw:p_max }

(* ------------------------------------------------------------------ *)
(* F3: TAM wirelength vs number of buses.                              *)

let figure_f3 () =
  section "F3" "TAM trunk wirelength vs number of buses (figure)";
  List.iter
    (fun soc ->
      let fp = Floorplan.place soc in
      let total_width = 24 in
      Printf.printf "SOC %s, W=%d:\n" (Soc.name soc) total_width;
      let rows =
        List.filter_map
          (fun nb ->
            let problem = Problem.make soc ~num_buses:nb ~total_width in
            match (Exact.solve problem).Exact.solution with
            | None -> None
            | Some (arch, t) ->
                let w =
                  Routing.wiring fp
                    ~assignment:arch.Architecture.assignment
                    ~widths:arch.Architecture.widths
                in
                Some
                  [ string_of_int nb;
                    string_of_int t;
                    Table.fmt_float ~decimals:1 w.Routing.total_mm;
                    Table.fmt_float ~decimals:1 w.Routing.wire_area ])
          [ 1; 2; 3; 4 ]
      in
      print_string
        (Table.render
           ~headers:[ "buses"; "optimal T"; "trunk mm"; "wire area" ]
           rows);
      print_newline ())
    [ Benchmarks.s1 (); Benchmarks.s2 () ]

(* ------------------------------------------------------------------ *)
(* A1: big-M vs product-linearized ILP formulation.                    *)

let table_a1 () =
  section "A1" "ablation: big-M vs product-linearized formulation";
  let soc = Benchmarks.s1 () in
  let rows =
    List.concat_map
      (fun w ->
        let problem = Problem.make soc ~num_buses:2 ~total_width:w in
        List.map
          (fun (name, formulation) ->
            let r = ilp_solve ~formulation ~time_limit_s:60.0 problem in
            [ string_of_int w;
              name;
              (match r.Ilp.solution with
              | Some (_, t) -> string_of_int t
              | None -> "infeasible");
              string_of_int r.Ilp.stats.Ilp.variables;
              string_of_int r.Ilp.stats.Ilp.constraints;
              string_of_int r.Ilp.stats.Ilp.bb_nodes;
              string_of_int r.Ilp.stats.Ilp.lp_pivots;
              Table.fmt_float r.Ilp.stats.Ilp.elapsed_s ])
          [ ("big-M", Ilp.Big_m); ("linearized", Ilp.Linearized) ])
      [ 10; 12; 14 ]
  in
  print_string
    (Table.render
       ~headers:
         [ "W"; "formulation"; "T"; "vars"; "rows"; "nodes"; "pivots"; "s" ]
       rows)

(* ------------------------------------------------------------------ *)
(* A2: symmetry breaking on/off.                                       *)

let table_a2 () =
  section "A2" "ablation: bus-width symmetry breaking";
  let soc = Benchmarks.s1 () in
  let rows =
    List.concat_map
      (fun w ->
        let problem = Problem.make soc ~num_buses:3 ~total_width:w in
        List.map
          (fun (name, sym) ->
            let r =
              ilp_solve ~symmetry_breaking:sym ~time_limit_s:60.0 problem
            in
            [ string_of_int w;
              name;
              (match r.Ilp.solution with
              | Some (_, t) -> string_of_int t
              | None -> "infeasible");
              string_of_int r.Ilp.stats.Ilp.bb_nodes;
              Table.fmt_float r.Ilp.stats.Ilp.elapsed_s ])
          [ ("on", true); ("off", false) ])
      [ 12; 16; 20 ]
  in
  print_string
    (Table.render ~headers:[ "W"; "symmetry"; "T"; "nodes"; "s" ] rows)

(* ------------------------------------------------------------------ *)
(* A3: serialization vs scan-distribution test-time model.             *)

let table_a3 () =
  section "A3" "ablation: serialization vs scan-distribution time model";
  let soc = Benchmarks.s1 () in
  let rows =
    List.map
      (fun w ->
        let solve model =
          let problem =
            Problem.make ~time_model:model soc ~num_buses:2 ~total_width:w
          in
          match (Exact.solve problem).Exact.solution with
          | Some (_, t) -> string_of_int t
          | None -> "-"
        in
        [ string_of_int w;
          solve Test_time.Serialization;
          solve Test_time.Scan_distribution ])
      (pick [ 8; 12; 16; 20; 24; 28; 32 ] [ 8; 16; 32 ])
  in
  print_string
    (Table.render
       ~headers:[ "W"; "T serialization"; "T scan-distribution" ]
       rows)

(* ------------------------------------------------------------------ *)
(* A4: heuristic vs optimal gap.                                       *)

let table_a4 () =
  section "A4" "baselines: greedy+LS and annealing vs optimal (random SOCs)";
  let rows =
    List.map
      (fun seed ->
        let soc = Benchmarks.random ~seed ~num_cores:9 () in
        let problem = Problem.make soc ~num_buses:2 ~total_width:16 in
        let optimum =
          match (Exact.solve problem).Exact.solution with
          | Some (_, t) -> t
          | None -> -1
        in
        let heuristic =
          match Heuristics.solve ~seed problem with
          | Some h -> h.Heuristics.test_time
          | None -> -1
        in
        let annealed =
          match Annealing.solve ~seed problem with
          | Some a -> a.Annealing.test_time
          | None -> -1
        in
        let descended =
          match Heuristics.solve ~seed problem with
          | Some h -> (
              match
                Width_dp.alternate problem ~start:h.Heuristics.architecture
              with
              | Some (_, t) -> t
              | None -> -1)
          | None -> -1
        in
        let gap v =
          Table.fmt_float
            (100.0 *. (float_of_int v /. float_of_int optimum -. 1.0))
          ^ "%"
        in
        [ Printf.sprintf "rnd:%d" seed;
          string_of_int optimum;
          string_of_int heuristic;
          gap heuristic;
          string_of_int annealed;
          gap annealed;
          string_of_int descended;
          gap descended ])
      (List.init 10 (fun k -> 200 + k))
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "optimal"; "greedy+LS"; "gap"; "annealing"; "gap";
           "alt-descent"; "gap" ]
       rows)

(* ------------------------------------------------------------------ *)
(* A5: power handling: structural co-assignment vs staggered schedule. *)

let table_a5 () =
  section "A5" "extension: structural co-assignment vs staggered scheduling";
  let soc = Benchmarks.s2 () in
  let num_buses = 3 and total_width = 24 in
  let total = Power_model.total_power soc in
  let unconstrained = Problem.make soc ~num_buses ~total_width in
  let free_arch, free_t =
    match (Exact.solve unconstrained).Exact.solution with
    | Some (arch, t) -> (arch, t)
    | None -> assert false
  in
  Printf.printf "unconstrained optimum: %d cycles\n\n" free_t;
  let rows =
    List.map
      (fun frac ->
        let p_max = frac *. total in
        let co_pairs =
          Power_conflicts.co_assignment_pairs soc ~p_max_mw:p_max
        in
        let constrained =
          Problem.make soc
            ~constraints:{ Problem.exclusion_pairs = []; co_pairs }
            ~num_buses ~total_width
        in
        let structural =
          match (Exact.solve constrained).Exact.solution with
          | Some (_, t) -> string_of_int t
          | None -> "infeasible"
        in
        let staggered =
          match
            Power_sched.stagger unconstrained free_arch ~p_max_mw:p_max
          with
          | Some sched -> string_of_int sched.Rect_sched.makespan
          | None -> "impossible"
        in
        [ Table.fmt_float frac;
          Table.fmt_float ~decimals:0 p_max;
          structural;
          staggered ])
      [ 0.8; 0.6; 0.5; 0.45; 0.4; 0.35 ]
  in
  print_string
    (Table.render
       ~headers:[ "fraction"; "P_max mW"; "T co-assignment"; "T staggered" ]
       rows);
  print_endline
    "(neither strategy dominates: co-assignment re-optimizes the\n\
    \ architecture but over-serializes; staggering keeps the width-optimal\n\
    \ architecture but inserts idle time)"

(* ------------------------------------------------------------------ *)
(* B1: flexible-width rectangle scheduling vs the fixed-bus model.     *)

(* Node budget of B1's exact packing pass: the fuzz oracle's cap. The
   pass is seeded with the fixed-bus optimum, so a blown budget still
   leaves every cell no worse than the paper's model. *)
let b1_pack_node_budget = 200_000

let table_b1 () =
  section "B1"
    "extension: flexible-width rectangle scheduling vs fixed buses";
  List.iter
    (fun (soc, time_model) ->
      Printf.printf "SOC %s, %s model (2 fixed buses vs free rectangles):\n"
        (Soc.name soc)
        (Test_time.model_name time_model);
      let rows =
        List.map
          (fun w ->
            let problem =
              Problem.make ~time_model soc ~num_buses:2 ~total_width:w
            in
            let optimum = (Exact.solve problem).Exact.solution in
            let fixed = match optimum with Some (_, t) -> t | None -> -1 in
            let flexible =
              let r =
                Pack.solve ~node_budget:b1_pack_node_budget
                  ~seed_archs:(Option.to_list (Option.map fst optimum))
                  problem
              in
              match r.Pack.packing with
              | Some sched -> (
                  match Rect_sched.validate problem sched with
                  | Ok () -> sched.Rect_sched.makespan
                  | Error msg ->
                      Printf.printf "!! B1 invalid schedule: %s\n" msg;
                      -1)
              | None -> -1
            in
            if fixed >= 0 && flexible > fixed then
              Printf.printf "!! B1 W=%d: packing %d loses to fixed buses %d\n"
                w flexible fixed;
            let lb = Rect_sched.lower_bound problem in
            [ string_of_int w;
              string_of_int fixed;
              string_of_int flexible;
              Table.fmt_float
                (100.0
                *. (1.0 -. (float_of_int flexible /. float_of_int fixed)))
              ^ "%";
              string_of_int lb ])
          [ 8; 16; 24; 32; 40 ]
      in
      print_string
        (Table.render
           ~headers:
             [ "W"; "T fixed-bus opt"; "T flexible"; "saved"; "area LB" ]
           rows);
      print_newline ())
    [ (Benchmarks.s1 (), Test_time.Serialization);
      (Benchmarks.s2 (), Test_time.Serialization);
      (Benchmarks.s1 (), Test_time.Scan_distribution);
      (Benchmarks.s2 (), Test_time.Scan_distribution) ];
  print_endline
    "(per-core width selection + rectangle packing generalizes the\n\
    \ fixed-bus model; under the serialization staircase the fixed-bus\n\
    \ optimum already sits within a few percent of the area bound and\n\
    \ packing rarely closes any of it, while the wrapper-aware\n\
    \ scan-distribution model leaves real room, up to the area bound --\n\
    \ the gap the successor formulations of this paper series went after)"

(* ------------------------------------------------------------------ *)
(* A9: width sub-problem P2: polynomial DP and alternating descent.    *)

let table_a9 () =
  section "A9"
    "sub-problem P2: polynomial width DP + alternating coordinate descent";
  let rows =
    List.map
      (fun (soc, nb, w) ->
        let problem = Problem.make soc ~num_buses:nb ~total_width:w in
        (* Fixed round-robin assignment for the width sub-problem. *)
        let n = Soc.num_cores soc in
        let assignment = Array.init n (fun i -> i mod nb) in
        let t0 = Clock.now_s () in
        let wdp = Width_dp.solve problem ~assignment in
        let dp_s = Clock.elapsed_s ~since:t0 in
        let start =
          Architecture.make
            ~widths:(Array.make nb (w / nb) |> fun a ->
                     a.(0) <- a.(0) + (w mod nb);
                     a)
            ~assignment
        in
        let descent =
          match Width_dp.alternate problem ~start with
          | Some (_, t) -> t
          | None -> -1
        in
        let optimum =
          match (Exact.solve problem).Exact.solution with
          | Some (_, t) -> t
          | None -> -1
        in
        [ Soc.name soc;
          Printf.sprintf "%d/%d" nb w;
          string_of_int (Cost.test_time problem start);
          string_of_int wdp.Width_dp.test_time;
          Table.fmt_float ~decimals:5 dp_s;
          string_of_int descent;
          string_of_int optimum ])
      [ (Benchmarks.s1 (), 2, 16); (Benchmarks.s1 (), 3, 24);
        (Benchmarks.s2 (), 2, 32); (Benchmarks.s2 (), 3, 48);
        (Benchmarks.s3 (), 3, 32) ]
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "nb/W"; "T start"; "T width-DP"; "DP s";
           "T alt-descent"; "T optimum" ]
       rows);
  print_endline
    "(width DP optimizes widths for a fixed round-robin assignment;
    \ alternating descent then re-optimizes both coordinates to a
    \ fixpoint, which lands on or near the global optimum)"

(* ------------------------------------------------------------------ *)
(* A7: assignment-only sub-problem (P1): ILP vs subset-DP.             *)

let table_a7 () =
  section "A7" "assignment sub-problem P1: ILP vs assignment DP";
  let rows =
    List.filter_map
      (fun (soc, widths) ->
        let nb = Array.length widths in
        let w = Array.fold_left ( + ) 0 widths in
        let problem = Problem.make soc ~num_buses:nb ~total_width:w in
        let t0 = Clock.now_s () in
        let dp = Dp_assign.solve problem ~widths in
        let dp_s = Clock.elapsed_s ~since:t0 in
        let ilp = Ilp.solve_assignment ~time_limit_s:30.0 problem ~widths in
        let dp_t =
          match dp with Some o -> Some o.Dp_assign.test_time | None -> None
        in
        let ilp_t =
          match ilp.Ilp.solution with Some (_, t) -> Some t | None -> None
        in
        if ilp.Ilp.optimal && dp_t <> ilp_t then
          Printf.printf "!! A7 DISAGREE on %s %s\n" (Soc.name soc)
            (String.concat "+"
               (List.map string_of_int (Array.to_list widths)));
        Some
          [ Soc.name soc;
            String.concat "+"
              (List.map string_of_int (Array.to_list widths));
            fmt_time_opt dp_t;
            Table.fmt_float ~decimals:4 dp_s;
            fmt_time_opt ilp_t;
            string_of_int ilp.Ilp.stats.Ilp.bb_nodes;
            Table.fmt_float ~decimals:3 ilp.Ilp.stats.Ilp.elapsed_s ])
      [ (Benchmarks.s1 (), [| 11; 5 |]);
        (Benchmarks.s1 (), [| 18; 4; 2 |]);
        (Benchmarks.s2 (), [| 16; 8 |]);
        (Benchmarks.s2 (), [| 16; 13; 3 |]);
        (Benchmarks.s3 (), [| 12; 8; 4 |]) ]
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "widths"; "DP T"; "DP s"; "ILP T"; "ILP nodes"; "ILP s" ]
       rows)

(* ------------------------------------------------------------------ *)
(* A8: wrapper balancing: LPT vs exact optimum.                        *)

let table_a8 () =
  section "A8" "ablation: LPT vs exact wrapper balancing";
  let module Wrapper = Soctam_soc.Wrapper in
  let rows =
    List.concat_map
      (fun name ->
        let core = Benchmarks.core_by_name name in
        List.filter_map
          (fun width ->
            let lpt = Wrapper.design core ~tam_width:width in
            let opt = Wrapper.design_optimal core ~tam_width:width in
            let p = core.Core_def.patterns in
            let t d =
              ((1 + max d.Wrapper.si d.Wrapper.so) * p)
              + min d.Wrapper.si d.Wrapper.so
            in
            if lpt = opt then None
            else
              Some
                [ name;
                  string_of_int width;
                  Printf.sprintf "%d/%d" lpt.Wrapper.si lpt.Wrapper.so;
                  Printf.sprintf "%d/%d" opt.Wrapper.si opt.Wrapper.so;
                  string_of_int (t lpt);
                  string_of_int (t opt) ])
          [ 2; 3; 4; 5; 6; 7; 8; 10; 12; 14 ])
      Benchmarks.library_names
  in
  if rows = [] then
    print_endline
      "LPT is optimal for every library core and width in the sweep\n\
       (internal chains are near-uniform, where LPT is provably exact);\n\
       the classic counterexample lives in the unit tests."
  else
    print_string
      (Table.render
         ~headers:
           [ "core"; "width"; "LPT si/so"; "opt si/so"; "T(LPT)"; "T(opt)" ]
         rows)

(* ------------------------------------------------------------------ *)
(* F4: width/time trade-off curve with knee detection (extension).     *)

let figure_f4 () =
  section "F4" "extension: width/time trade-off curve and knee";
  List.iter
    (fun soc ->
      let widths = List.init 23 (fun k -> 2 + (2 * k)) in
      let curve =
        Soctam_plan.Tradeoff.curve soc ~num_buses:2 ~widths
      in
      let pareto = Soctam_plan.Tradeoff.pareto curve in
      Printf.printf "SOC %s: %d budgets, %d Pareto points\n" (Soc.name soc)
        (List.length curve) (List.length pareto);
      let rows =
        List.map
          (fun { Soctam_plan.Tradeoff.total_width; test_time } ->
            [ string_of_int total_width; string_of_int test_time ])
          pareto
      in
      print_string (Table.render ~headers:[ "W"; "T_opt" ] rows);
      (match Soctam_plan.Tradeoff.knee curve with
      | Some { Soctam_plan.Tradeoff.total_width; test_time } ->
          Printf.printf "knee: W=%d (T=%d)\n\n" total_width test_time
      | None -> print_newline ()))
    [ Benchmarks.s1 (); Benchmarks.s2 () ]

(* ------------------------------------------------------------------ *)
(* A6: wirelength tie-breaking among time-optimal architectures.       *)

let table_a6 () =
  section "A6"
    "extension: trunk wirelength tie-breaking among time-optimal designs";
  let rows =
    List.concat_map
      (fun (soc, nb, w) ->
        let fp = Floorplan.place soc in
        let problem = Problem.make soc ~num_buses:nb ~total_width:w in
        match (Exact.solve problem).Exact.solution with
        | None -> []
        | Some (first_arch, t) ->
            let first_mm =
              (Routing.wiring fp
                 ~assignment:first_arch.Architecture.assignment
                 ~widths:first_arch.Architecture.widths)
                .Routing.total_mm
            in
            (match Soctam_plan.Wire_opt.solve problem fp with
            | None -> []
            | Some r ->
                [ [ Soc.name soc;
                    string_of_int nb;
                    string_of_int w;
                    string_of_int t;
                    string_of_int r.Soctam_plan.Wire_opt.optima_enumerated
                    ^ (if r.Soctam_plan.Wire_opt.capped then "+" else "");
                    Table.fmt_float ~decimals:1 first_mm;
                    Table.fmt_float ~decimals:1
                      r.Soctam_plan.Wire_opt.trunk_mm;
                    Table.fmt_float ~decimals:1
                      (100.0
                      *. (1.0
                         -. (r.Soctam_plan.Wire_opt.trunk_mm /. first_mm)))
                    ^ "%" ] ]))
      [ (Benchmarks.s1 (), 2, 16);
        (Benchmarks.s1 (), 3, 18);
        (Benchmarks.s2 (), 2, 24);
        (Benchmarks.s2 (), 3, 24) ]
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "nb"; "W"; "T_opt"; "optima"; "first mm"; "best mm";
           "saved" ]
       rows);
  print_endline "(+ = enumeration cap reached; best-found wirelength shown)"

(* ------------------------------------------------------------------ *)
(* JSON documents. [--json] collects E8, E11, E13, E9 and E12;         *)
(* [--service-json] collects E10 and E14. Each section appends its     *)
(* members where it measures them, so run order is key order.          *)

let sweep_doc =
  ref
    [ ("domains_available", Json.int (Domain.recommended_domain_count ()));
      ("jobs", Json.int jobs);
      ("quick", Json.Bool quick) ]

let service_doc =
  ref [ ("experiment", Json.Str "E10"); ("jobs", Json.int jobs) ]

let record doc members = doc := !doc @ members

(* [write_doc path doc] writes [doc] under its UTC recording time. *)
let write_doc path doc =
  let t = Unix.gmtime (Unix.time ()) in
  let stamp =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string_pretty
           (Json.Obj (("recorded_utc", Json.Str stamp) :: !doc))))

let json_opt f = function Some v -> f v | None -> Json.Null
let yes_no b = if b then "yes" else "NO"

(* Latencies through the telemetry histogram, as the daemon reports
   them, so the recorded numbers carry its (bounded) bucketing error
   and its p999. *)
let latency_table paths =
  let pct snap q = Table.fmt_float ~decimals:3 (Hist.quantile snap q) in
  print_string
    (Table.render
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right;
                 Table.Right; Table.Right ]
       ~headers:[ "path"; "requests"; "p50 ms"; "p95 ms"; "p99 ms";
                  "p999 ms" ]
       (List.map
          (fun (name, samples) ->
            let snap = Hist.of_samples samples in
            [ name; string_of_int (Array.length samples); pct snap 0.50;
              pct snap 0.95; pct snap 0.99; pct snap 0.999 ])
          paths))

let latency_json samples = Hist.summary_json (Hist.of_samples samples)

(* ------------------------------------------------------------------ *)
(* E8: parallel sweep engine — sequential vs parallel wall-clock.      *)

let table_e8 () =
  section "E8"
    (Printf.sprintf
       "parallel sweep engine: sequential vs %d-domain wall-clock" jobs);
  (* Exact cells cover the full width staircase (memo reuse dominates);
     ILP cells — the paper's CPU statistic — are the coarse-grained
     work that the domain fan-out is for. No ILP time limit: budget
     expiry depends on wall-clock load and would break the determinism
     guarantee. *)
  let exact = Sweep.Exact in
  let ilp = Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true } in
  let free = Problem.no_constraints in
  (* An exclusion triangle (cores 0,1,2 pairwise apart) exercises the
     clique cover — one size-3 clique row per bus instead of three
     pairwise rows — and a co-assignment pair (3,4) exercises the
     presolve merge. Three buses keep the triangle satisfiable. *)
  let constrained =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4) ] }
  in
  let workloads =
    pick
      [ (Benchmarks.s1 (), 2, List.init 12 (fun k -> 4 + (4 * k)), free, exact);
        (Benchmarks.s1 (), 3, List.init 12 (fun k -> 4 + (4 * k)), free, exact);
        (Benchmarks.s2 (), 2, List.init 12 (fun k -> 4 + (4 * k)), free, exact);
        (Benchmarks.s2 (), 3, List.init 8 (fun k -> 6 + (6 * k)), free, exact);
        (Benchmarks.s3 (), 3, List.init 6 (fun k -> 8 + (4 * k)), free, exact);
        (Benchmarks.s1 (), 2, [ 16; 20; 24; 28; 32 ], free, ilp);
        (Benchmarks.s1 (), 3, [ 16; 20; 24 ], free, ilp);
        (Benchmarks.s1 (), 3, [ 12; 16 ], constrained, ilp);
        (Benchmarks.s2 (), 2, [ 16; 24; 32 ], free, ilp) ]
      [ (Benchmarks.s1 (), 2, [ 8; 16; 24; 32 ], free, exact);
        (Benchmarks.s1 (), 2, [ 12; 16 ], free, ilp);
        (Benchmarks.s1 (), 3, [ 8 ], constrained, ilp) ]
  in
  (* [--trace] records the E8 sweeps themselves; the trace is written
     here, before E9 restarts the recording epoch for its overhead
     measurement. *)
  if trace_path <> None then Obs.enable ();
  let seq_total = ref 0.0 and par_total = ref 0.0 in
  let all_rows = ref [] and all_identical = ref true in
  (* Minor-heap words the sequential ILP sweeps allocate on this domain,
     and the solves they run: the per-solve count repeats exactly from
     run to run, so CI can ratchet it. *)
  let ilp_words = ref 0.0 and ilp_solves = ref 0 in
  let table, sweeps =
    Pool.with_pool ~num_domains:jobs (fun pool ->
        List.split
          (List.map
             (fun (soc, num_buses, widths, constraints, solver) ->
               let cells =
                 Sweep.cells ~constraints ~solver soc ~num_buses ~widths
               in
               let t0 = Clock.now_s () in
               let words0 = Gc.minor_words () in
               let rows = Sweep.run cells in
               let words = Gc.minor_words () -. words0 in
               let seq_s = Clock.elapsed_s ~since:t0 in
               (match solver with
               | Sweep.Ilp _ ->
                   ilp_words := !ilp_words +. words;
                   ilp_solves := !ilp_solves + List.length cells
               | _ -> ());
               let t1 = Clock.now_s () in
               let par_rows = Sweep.run ~pool cells in
               let par_s = Clock.elapsed_s ~since:t1 in
               let identical = Sweep.equal_rows rows par_rows in
               seq_total := !seq_total +. seq_s;
               par_total := !par_total +. par_s;
               all_rows := !all_rows @ rows;
               all_identical := !all_identical && identical;
               let t = Sweep.totals rows in
               ( [ Soc.name soc;
                   string_of_int num_buses;
                   Sweep.solver_name solver;
                   string_of_int t.Sweep.cells;
                   string_of_int t.Sweep.nodes;
                   string_of_int t.Sweep.lp_pivots;
                   string_of_int t.Sweep.warm_starts;
                   string_of_int t.Sweep.cold_solves;
                   string_of_int t.Sweep.cuts_added;
                   string_of_int t.Sweep.presolve_fixed;
                   Table.fmt_float ~decimals:3 seq_s;
                   Table.fmt_float ~decimals:3 par_s;
                   Table.fmt_float (seq_s /. par_s) ^ "x";
                   yes_no identical ],
                 Json.Obj
                   [ ("soc", Json.Str (Soc.name soc));
                     ("num_buses", Json.int num_buses);
                     ("solver", Json.Str (Sweep.solver_name solver));
                     ("cells", Json.int t.Sweep.cells);
                     ("nodes", Json.int t.Sweep.nodes);
                     ("lp_pivots", Json.int t.Sweep.lp_pivots);
                     ("warm_starts", Json.int t.Sweep.warm_starts);
                     ("cold_solves", Json.int t.Sweep.cold_solves);
                     ("refactorizations", Json.int t.Sweep.refactorizations);
                     ("cuts_added", Json.int t.Sweep.cuts_added);
                     ("presolve_fixed", Json.int t.Sweep.presolve_fixed);
                     ("seq_s", Json.Num seq_s);
                     ("par_s", Json.Num par_s);
                     ("speedup", Json.Num (seq_s /. par_s));
                     ("identical", Json.Bool identical);
                     ("rows", Json.Arr (List.map Sweep.json_of_row rows)) ] ))
             workloads))
  in
  (match trace_path with
  | Some path ->
      Obs.disable ();
      let events, metrics = Obs.drain () in
      Trace.write path ~metrics events;
      Printf.printf "trace: %d events -> %s\n" (List.length events) path
  | None -> ());
  print_string
    (Table.render
       ~headers:
         [ "soc"; "nb"; "solver"; "cells"; "nodes"; "pivots"; "warm";
           "cold"; "cuts"; "fixed"; "seq s"; "par s"; "speedup";
           "identical" ]
       table);
  let speedup = !seq_total /. !par_total in
  Printf.printf
    "\nspeedup summary: %.3f s sequential vs %.3f s on %d domain(s) — \
     %.2fx; rows identical across job counts: %s\n"
    !seq_total !par_total jobs speedup (yes_no !all_identical);
  let t = Sweep.totals !all_rows in
  let words_per_solve =
    Float.to_int (Float.round (!ilp_words /. float_of_int (max 1 !ilp_solves)))
  in
  Printf.printf
    "LP work: %d pivots total; %d warm-started node LPs vs %d cold solves, \
     %d refactorizations\n\
     model strengthening: %d clique rows, %d variables presolved away\n\
     MILP allocation: %d minor words per ILP solve (%d sequential solves)\n"
    t.Sweep.lp_pivots t.Sweep.warm_starts t.Sweep.cold_solves
    t.Sweep.refactorizations t.Sweep.cuts_added t.Sweep.presolve_fixed
    words_per_solve !ilp_solves;
  record sweep_doc
    [ ("sweeps", Json.Arr sweeps);
      ("seq_total_s", Json.Num !seq_total);
      ("par_total_s", Json.Num !par_total);
      ("speedup", Json.Num speedup);
      ("total_lp_pivots", Json.int t.Sweep.lp_pivots);
      ("total_warm_starts", Json.int t.Sweep.warm_starts);
      ("total_cold_solves", Json.int t.Sweep.cold_solves);
      ("total_refactorizations", Json.int t.Sweep.refactorizations);
      ("total_cuts_added", Json.int t.Sweep.cuts_added);
      ("total_presolve_fixed", Json.int t.Sweep.presolve_fixed);
      ("ilp_minor_words_per_solve", Json.int words_per_solve) ];
  if not !all_identical then
    print_endline "!! parallel sweep diverged from the sequential loop"

(* ------------------------------------------------------------------ *)
(* E9: observability — instrumentation overhead.                       *)

let table_e9 () =
  section "E9" "observability: instrumentation overhead on the quick sweep";
  let soc = Benchmarks.s1 () in
  let cells =
    Sweep.cells ~solver:Sweep.Exact soc ~num_buses:2
      ~widths:[ 8; 16; 24; 32 ]
    @ Sweep.cells
        ~solver:(Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true })
        soc ~num_buses:2 ~widths:[ 12; 16 ]
  in
  ignore (Sweep.run cells) (* warm-up *);
  let time_run () =
    (* Best of three: the minimum is the least noisy wall estimator. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Clock.now_s () in
      ignore (Sweep.run cells);
      best := Float.min !best (Clock.elapsed_s ~since:t0)
    done;
    !best
  in
  Obs.disable ();
  let disabled_s = time_run () in
  Obs.enable ();
  let enabled_s = time_run () in
  Obs.disable ();
  let events, metrics = Obs.drain () in
  let num_events = List.length events in
  let counter_updates =
    List.fold_left (fun acc (m : Obs.metric) -> acc + m.Obs.count) 0 metrics
  in
  (* Per-probe cost with tracing off: a disabled [span] is one flag
     load, a branch and a direct call of the thunk. *)
  let iters = 5_000_000 in
  let sink = ref 0 in
  let t0 = Clock.now_s () in
  for _ = 1 to iters do
    Obs.span "e9.noop" (fun () -> incr sink)
  done;
  let probe_ns = Clock.elapsed_s ~since:t0 *. 1e9 /. float_of_int iters in
  (* [enable] ran once before the three enabled repetitions, so the
     drained buffers hold three runs' worth of probes; normalize to
     one run. *)
  let events_per_run = num_events / 3 in
  let counter_updates_per_run = counter_updates / 3 in
  let probes_per_run = (num_events + counter_updates) / 3 in
  (* Modeled cost of the compiled-in-but-disabled probes: no-op probe
     cost times the probe count the enabled run recorded, relative to
     the disabled wall-clock. The CI-guarded number: unlike
     enabled-vs-disabled wall deltas it does not drift with machine
     noise. *)
  let disabled_pct =
    probe_ns *. float_of_int probes_per_run /. (disabled_s *. 1e9) *. 100.0
  in
  print_string
    (Table.render ~aligns:[ Table.Left; Table.Right ]
       ~headers:[ "metric"; "value" ]
       [ [ "sweep wall, tracing disabled (s)";
           Table.fmt_float ~decimals:4 disabled_s ];
         [ "sweep wall, tracing enabled (s)";
           Table.fmt_float ~decimals:4 enabled_s ];
         [ "enabled / disabled";
           Table.fmt_float ~decimals:3 (enabled_s /. disabled_s) ^ "x" ];
         [ "events per run"; string_of_int events_per_run ];
         [ "counter updates per run"; string_of_int counter_updates_per_run ];
         [ "disabled probe cost (ns)"; Table.fmt_float ~decimals:2 probe_ns ];
         [ "modeled disabled overhead";
           Table.fmt_float ~decimals:4 disabled_pct ^ "%" ] ]);
  print_endline
    "(modeled disabled overhead = probe cost x probe count / disabled\n\
    \ wall; the CI guard keeps it under 3%)";
  record sweep_doc
    [ ( "obs",
        Json.Obj
          [ ("disabled_s", Json.Num disabled_s);
            ("enabled_s", Json.Num enabled_s);
            ("events_per_run", Json.int events_per_run);
            ("counter_updates_per_run", Json.int counter_updates_per_run);
            ("probe_ns", Json.Num probe_ns);
            ("disabled_overhead_pct", Json.Num disabled_pct) ] ) ]

(* ------------------------------------------------------------------ *)
(* E10: solver-as-a-service — the daemon engine driven in-process.     *)

let table_e10 () =
  section "E10"
    "solver-as-a-service: result cache and admission on the in-process \
     engine";
  (* The load generator's deterministic mix, without sockets: request i
     targets instance (i mod distinct), so each distinct instance costs
     one miss and then hits. Client threads feed Service.handle_line
     directly; the solving still fans out over the worker domains. *)
  let requests = if quick then 200 else 600 in
  let concurrency = 8 in
  let hit_ratio = 0.5 in
  let distinct =
    max 1
      (int_of_float
         (Float.round (float_of_int requests *. (1.0 -. hit_ratio))))
  in
  let line i =
    Printf.sprintf
      {|{"id":%d,"op":"solve","soc":"s1","num_buses":2,"total_width":%d}|}
      i
      (16 + (i mod distinct))
  in
  let ok = Array.make requests false in
  let was_cached = Array.make requests false in
  let lat_ms = Array.make requests Float.nan in
  let stats, wall_s =
    Pool.with_pool ~num_domains:jobs (fun pool ->
        let svc =
          Service.create ~cache_capacity:(2 * distinct) ~queue_capacity:64
            ~pool ()
        in
        let next = ref 0 in
        let next_mutex = Mutex.create () in
        let fetch () =
          Mutex.lock next_mutex;
          let i = !next in
          if i < requests then incr next;
          Mutex.unlock next_mutex;
          if i < requests then Some i else None
        in
        let worker () =
          let rec loop () =
            match fetch () with
            | None -> ()
            | Some i ->
                let t0 = Clock.now_s () in
                let reply = Service.handle_line svc (line i) in
                lat_ms.(i) <- (Clock.now_s () -. t0) *. 1000.0;
                (match Json.parse reply with
                | Ok r ->
                    ok.(i) <- Protocol.reply_code r = "ok";
                    was_cached.(i) <-
                      Json.member "cached" r = Some (Json.Bool true)
                | Error _ -> ());
                loop ()
          in
          loop ()
        in
        let t0 = Clock.now_s () in
        let threads =
          List.init concurrency (fun _ -> Thread.create worker ())
        in
        List.iter Thread.join threads;
        let wall_s = Clock.elapsed_s ~since:t0 in
        (Service.stats_json svc, wall_s))
  in
  let select pred =
    let out = ref [] in
    for i = requests - 1 downto 0 do
      if pred i then out := lat_ms.(i) :: !out
    done;
    Array.of_list !out
  in
  let hits = select (fun i -> ok.(i) && was_cached.(i)) in
  let misses = select (fun i -> ok.(i) && not was_cached.(i)) in
  let completed = Array.length (select (fun i -> ok.(i))) in
  let throughput = float_of_int requests /. wall_s in
  (* Open-loop overload: a burst wider than the admission queue, fired
     all at once against a tiny-queue service. Every request must be
     accounted for as completed or shed — nothing hangs, nothing is
     silently dropped. *)
  let ovl_requests = 32 in
  let ovl_queue = 4 in
  let ovl_completed = ref 0 and ovl_shed = ref 0 in
  let ovl_mutex = Mutex.create () in
  Pool.with_pool ~num_domains:2 (fun pool ->
      let svc =
        Service.create ~cache_capacity:0 ~queue_capacity:ovl_queue ~pool ()
      in
      let fire i =
        let line =
          Printf.sprintf {|{"id":%d,"op":"sleep","ms":30}|} i
        in
        let reply = Service.handle_line svc line in
        Mutex.lock ovl_mutex;
        (match Result.map Protocol.reply_code (Json.parse reply) with
        | Ok "ok" -> incr ovl_completed
        | Ok "overloaded" -> incr ovl_shed
        | Ok _ | Error _ -> ());
        Mutex.unlock ovl_mutex
      in
      let threads = List.init ovl_requests (fun i -> Thread.create fire i) in
      List.iter Thread.join threads;
      Service.drain svc);
  let unaccounted = ovl_requests - !ovl_completed - !ovl_shed in
  latency_table [ ("cache miss (solve)", misses); ("cache hit", hits) ];
  Printf.printf
    "%d requests over %d client threads in %.3f s: %.0f req/s, %d errors\n"
    requests concurrency wall_s throughput (requests - completed);
  Printf.printf
    "overload burst: %d requests at queue=%d: %d completed, %d shed, %d \
     unaccounted\n"
    ovl_requests ovl_queue !ovl_completed !ovl_shed unaccounted;
  let hit_p50 = Metrics.percentile hits 0.50 in
  let miss_p50 = Metrics.percentile misses 0.50 in
  Printf.printf "hit p50 is %.1fx below miss p50\n" (miss_p50 /. hit_p50);
  record service_doc
    [ ("requests", Json.int requests);
      ("concurrency", Json.int concurrency);
      ("distinct_instances", Json.int distinct);
      ("wall_s", Json.Num wall_s);
      ("throughput_rps", Json.Num throughput);
      ("completed", Json.int completed);
      ("errors", Json.int (requests - completed));
      ( "shed_rate",
        Json.Num (float_of_int !ovl_shed /. float_of_int (max 1 ovl_requests))
      );
      ( "latency",
        Json.Obj
          [ ("hit", latency_json hits); ("miss", latency_json misses) ] );
      ( "overload",
        Json.Obj
          [ ("requests", Json.int ovl_requests);
            ("completed", Json.int !ovl_completed);
            ("shed", Json.int !ovl_shed);
            ("unaccounted", Json.int unaccounted) ] );
      ("service_stats", stats) ]

(* ------------------------------------------------------------------ *)
(* E14: persistent result store — cold recovery and the latency of a   *)
(* store hit against the in-memory LRU hit and the full solve.         *)

let table_e14 () =
  section "E14"
    "persistent result store: store-hit latency vs LRU hit vs solve";
  let distinct = if quick then 24 else 48 in
  let store_passes = 4 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "soctam-bench-store-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter
          (fun name -> rm_rf (Filename.concat path name))
          (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let line i =
    Printf.sprintf
      {|{"id":%d,"op":"solve","soc":"s1","num_buses":2,"total_width":%d}|}
      i
      (16 + (i mod distinct))
  in
  let timed svc i =
    let t0 = Clock.now_s () in
    let reply = Service.handle_line svc (line i) in
    let ms = (Clock.now_s () -. t0) *. 1000.0 in
    (match Json.parse reply with
    | Ok r when Protocol.reply_code r = "ok" -> ()
    | _ -> failwith "E14: request failed");
    ms
  in
  (* Phase 1: populate. The first pass over the distinct instances is
     all misses (solve + fsynced store append); the second pass is all
     in-memory LRU hits. Production fsync stays on — its cost lands on
     the miss path, where a solve dwarfs it. *)
  let miss_lat = Array.make distinct Float.nan in
  let lru_lat = Array.make distinct Float.nan in
  let store0 = Store.open_store dir in
  Pool.with_pool ~num_domains:jobs (fun pool ->
      let svc =
        Service.create ~cache_capacity:(2 * distinct) ~queue_capacity:64
          ~store:store0 ~pool ()
      in
      for i = 0 to distinct - 1 do
        miss_lat.(i) <- timed svc i
      done;
      for i = 0 to distinct - 1 do
        lru_lat.(i) <- timed svc i
      done);
  Store.close store0;
  (* Phase 2: cold restart. Reopen the directory (timed: the recovery
     scan) and serve every request through a service whose LRU is
     disabled, so each one is a disk hit — decode, frame check, canon
     remap, reply. *)
  let t0 = Clock.now_s () in
  let store = Store.open_store dir in
  let reopen_ms = Clock.elapsed_s ~since:t0 *. 1000.0 in
  let st = Store.stats store in
  let store_lat = Array.make (store_passes * distinct) Float.nan in
  Pool.with_pool ~num_domains:jobs (fun pool ->
      let svc =
        Service.create ~cache_capacity:0 ~queue_capacity:64 ~store ~pool
          ()
      in
      for p = 0 to store_passes - 1 do
        for i = 0 to distinct - 1 do
          store_lat.((p * distinct) + i) <- timed svc i
        done
      done);
  Store.close store;
  latency_table
    [ ("miss (solve + store append)", miss_lat);
      ("LRU hit (memory)", lru_lat);
      ("store hit (disk, cold LRU)", store_lat) ];
  Printf.printf
    "cold open recovered %d records (%d bytes) in %.3f ms\n" st.Store.live
    st.Store.bytes reopen_ms;
  let lru_p50 = Metrics.percentile lru_lat 0.50 in
  let store_p50 = Metrics.percentile store_lat 0.50 in
  let miss_p50 = Metrics.percentile miss_lat 0.50 in
  Printf.printf
    "store hit p50 is %.1fx an LRU hit, %.1fx below a solve\n"
    (store_p50 /. lru_p50) (miss_p50 /. store_p50);
  (* The store-hit summary joins E10's latency object; the store
     object closes the document. *)
  service_doc :=
    List.map
      (function
        | "latency", Json.Obj paths ->
            ( "latency",
              Json.Obj (paths @ [ ("store_hit", latency_json store_lat) ]) )
        | member -> member)
      !service_doc;
  record service_doc
    [ ( "store",
        Json.Obj
          [ ("distinct_instances", Json.int distinct);
            ("records", Json.int st.Store.live);
            ("bytes", Json.int st.Store.bytes);
            ("cold_open_ms", Json.Num reopen_ms);
            ( "latency",
              Json.Obj
                [ ("miss", latency_json miss_lat);
                  ("lru_hit", latency_json lru_lat);
                  ("store_hit", latency_json store_lat) ] ) ] ) ]

(* ------------------------------------------------------------------ *)
(* E11: anytime portfolio racing — wall-clock vs the best single       *)
(* certifying engine, and the B&B node savings from incumbent seeding. *)

let table_e11 () =
  section "E11"
    "anytime portfolio racing: the race vs the best single certifying \
     engine";
  (* E8's constrained instances (the conflict triangle gives the
     complete engines real pruning work) plus one free S2 cell whose
     branch-and-bound hits a bound plateau — the instance where the
     heuristic seed provably prunes frontier nodes the unseeded search
     must explore before it finds its first incumbent. The race is
     compared against each complete engine running alone (exact
     enumeration, the MILP): they certify, so they define "best
     single". The MILP is also re-run unseeded to isolate what the
     greedy incumbent saves branch and bound. All node counts are
     deterministic (no time limits), so the seeded-vs-unseeded relation
     recorded here is reproducible bit-for-bit in CI. *)
  let constrained =
    { Problem.exclusion_pairs = [ (0, 1); (0, 2); (1, 2) ];
      co_pairs = [ (3, 4) ] }
  in
  let workloads =
    pick
      [ (Benchmarks.s1 (), 3, [ 12; 16 ], constrained);
        (Benchmarks.s2 (), 3, [ 16 ], constrained);
        (Benchmarks.s2 (), 3, [ 16 ], Problem.no_constraints) ]
      [ (Benchmarks.s1 (), 3, [ 8 ], constrained);
        (Benchmarks.s2 (), 3, [ 16 ], Problem.no_constraints) ]
  in
  let ilp seed =
    Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed }
  in
  let race_total = ref 0.0 and best_total = ref 0.0 in
  let seeded = ref 0 and unseeded = ref 0 in
  let winners = ref [] and all_identical = ref true in
  let table, cells =
    List.split
      (List.concat_map
         (fun (soc, num_buses, widths, constraints) ->
           let cell solver w =
             List.hd
               (Sweep.cells ~constraints ~solver soc ~num_buses ~widths:[ w ])
           in
           List.map
             (fun w ->
               let time ?on_event solver =
                 let t0 = Clock.now_s () in
                 let row = Sweep.solve_one ?on_event (cell solver w) in
                 (row, Clock.elapsed_s ~since:t0)
               in
               let exact_row, exact_s = time Sweep.Exact in
               let ilp_row, ilp_s = time (ilp true) in
               let unseeded_row, _ = time (ilp false) in
               let incumbents = ref 0 in
               let race_row, race_s =
                 time ~on_event:(fun _ -> incr incumbents) Sweep.Race
               in
               let best_single, best_single_s =
                 if exact_s <= ilp_s then ("exact", exact_s)
                 else ("ilp", ilp_s)
               in
               let t (row : Sweep.row) = Option.map snd row.Sweep.solution in
               let identical =
                 t race_row = t exact_row
                 && t ilp_row = t exact_row
                 && t unseeded_row = t exact_row
                 && race_row.Sweep.optimal
               in
               let winner = Option.value ~default:"-" race_row.Sweep.winner in
               race_total := !race_total +. race_s;
               best_total := !best_total +. best_single_s;
               seeded := !seeded + ilp_row.Sweep.nodes;
               unseeded := !unseeded + unseeded_row.Sweep.nodes;
               winners := winner :: !winners;
               all_identical := !all_identical && identical;
               ( [ Soc.name soc;
                   string_of_int num_buses;
                   string_of_int w;
                   (match t exact_row with
                   | Some t -> string_of_int t
                   | None -> "-");
                   Table.fmt_float ~decimals:3 exact_s;
                   Table.fmt_float ~decimals:3 ilp_s;
                   Table.fmt_float ~decimals:3 race_s;
                   winner;
                   string_of_int !incumbents;
                   string_of_int ilp_row.Sweep.nodes;
                   string_of_int unseeded_row.Sweep.nodes;
                   yes_no identical ],
                 Json.Obj
                   [ ("soc", Json.Str (Soc.name soc));
                     ("num_buses", Json.int num_buses);
                     ("total_width", Json.int w);
                     ("test_time", json_opt Json.int (t exact_row));
                     ("exact_s", Json.Num exact_s);
                     ("ilp_s", Json.Num ilp_s);
                     ("best_single", Json.Str best_single);
                     ("best_single_s", Json.Num best_single_s);
                     ("race_seq_s", Json.Num race_s);
                     ("winner", Json.Str winner);
                     ("incumbents", Json.int !incumbents);
                     ("ilp_nodes_seeded", Json.int ilp_row.Sweep.nodes);
                     ("ilp_nodes_unseeded", Json.int unseeded_row.Sweep.nodes);
                     ( "constrained",
                       Json.Bool (constraints <> Problem.no_constraints) );
                     ("identical", Json.Bool identical) ] ))
             widths)
         workloads)
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "nb"; "W"; "T_opt"; "exact s"; "ilp s"; "race s";
           "winner"; "incumb"; "nodes seed"; "nodes free"; "identical" ]
       table);
  Printf.printf
    "\nrace summary: %.3f s racing vs %.3f s for the best single \
     certifying engine (+%.1f ms fixed portfolio overhead); seeded MILP \
     explored %d nodes vs %d unseeded (%d saved)\n"
    !race_total !best_total
    ((!race_total -. !best_total) *. 1000.)
    !seeded !unseeded (!unseeded - !seeded);
  let count w = List.length (List.filter (( = ) w) !winners) in
  record sweep_doc
    [ ( "race",
        Json.Obj
          [ ("workloads", Json.Arr cells);
            ("race_seq_total_s", Json.Num !race_total);
            ("best_single_total_s", Json.Num !best_total);
            ( "winners",
              Json.Obj
                (List.map
                   (fun w -> (w, Json.int (count w)))
                   (List.sort_uniq compare !winners)) );
            ("ilp_nodes_seeded", Json.int !seeded);
            ("ilp_nodes_unseeded", Json.int !unseeded);
            ("all_identical", Json.Bool !all_identical) ] ) ];
  if not !all_identical then
    print_endline "!! race certified a value the single engines disagree with";
  if !seeded >= !unseeded then
    print_endline "!! incumbent seeding failed to prune any B&B nodes"

(* ------------------------------------------------------------------ *)
(* E12: telemetry overhead — the histogram the daemon records every    *)
(* request into must cost nanoseconds, and its quantiles must track an *)
(* exact sort. The CI budget asserts record_ns <= 100 and the quantile *)
(* errors <= 2% from the JSON this block emits.                        *)

let table_e12 () =
  section "E12" "telemetry overhead: histogram record cost and accuracy";
  let n = pick 1_000_000 200_000 in
  let st = Random.State.make [| 2026 |] in
  (* Latency-shaped samples across six decades, pregenerated so the
     timed loop measures only Hist.record. *)
  let samples =
    Array.init n (fun _ -> 10.0 ** (Random.State.float st 6.0 -. 3.0))
  in
  let h = Hist.create () in
  (* Warm the DLS shard so lazy registration is not in the timing. *)
  Hist.record h 1.0;
  Hist.clear h;
  let t0 = Clock.now_s () in
  Array.iter (Hist.record h) samples;
  let record_ns = (Clock.now_s () -. t0) *. 1e9 /. float_of_int n in
  let snap = Hist.snapshot h in
  let rel q =
    let exact = Metrics.percentile samples q in
    Float.abs (Hist.quantile snap q -. exact) /. exact
  in
  let p50_err = rel 0.50 and p99_err = rel 0.99 and p999_err = rel 0.999 in
  (* One structured log event per request rides on top of the record;
     measure it against a null sink for scale. *)
  let log_events = pick 200_000 50_000 in
  let log = Log.create (Log.Fn ignore) in
  let t0 = Clock.now_s () in
  for i = 1 to log_events do
    Log.event log
      [ ("trace_id", Json.Str "bench-000001");
        ("op", Json.Str "solve");
        ("cached", Json.Bool (i land 1 = 0));
        ("verdict", Json.Str "ok");
        ("duration_ms", Json.Num 0.25) ]
  done;
  let log_ns = (Clock.now_s () -. t0) *. 1e9 /. float_of_int log_events in
  Log.close log;
  print_string
    (Table.render
       ~aligns:[ Table.Left; Table.Right; Table.Right ]
       ~headers:[ "operation"; "cost"; "vs exact sort" ]
       [ [ "Hist.record";
           Printf.sprintf "%.1f ns/sample" record_ns;
           "-" ];
         [ "Hist.quantile p50"; "-";
           Printf.sprintf "%.3f%% err" (100.0 *. p50_err) ];
         [ "Hist.quantile p99"; "-";
           Printf.sprintf "%.3f%% err" (100.0 *. p99_err) ];
         [ "Hist.quantile p999"; "-";
           Printf.sprintf "%.3f%% err" (100.0 *. p999_err) ];
         [ "Log.event (null sink)";
           Printf.sprintf "%.0f ns/event" log_ns;
           "-" ] ]);
  Printf.printf
    "%d samples recorded; quantile error bound by bucket geometry is \
     1/128 = 0.78%%\n"
    n;
  record sweep_doc
    [ ( "telemetry",
        Json.Obj
          [ ("samples", Json.int n);
            ("record_ns", Json.Num record_ns);
            ("p50_rel_err", Json.Num p50_err);
            ("p99_rel_err", Json.Num p99_err);
            ("p999_rel_err", Json.Num p999_err);
            ("log_event_ns", Json.Num log_ns) ] ) ]

(* ------------------------------------------------------------------ *)
(* E13: rectangle packing vs the fixed-bus partition model — the       *)
(* makespan the flexible-wire formulation saves, the exact packer's    *)
(* certification effort, and the pack race's jobs-independence.        *)

let table_e13 () =
  section "E13"
    "rectangle packing vs partition: makespan, certificates, node counts";
  (* Instances sized for the exact packer to run to exhaustion, so the
     recorded node counts — like E11's B&B counts — are deterministic
     and diffable in CI. One cell adds an instantaneous power envelope
     (1.3x the hungriest core); on such a cell the partition optimum
     only bounds the packing when its own schedule happens to respect
     the envelope the partition solvers never see, which
     [bound_applies] records. *)
  let workloads =
    pick
      [ (Benchmarks.random ~seed:5 ~num_cores:4 (), 2, [ 6; 8 ], false);
        (Benchmarks.random ~seed:9 ~num_cores:4 (), 2, [ 6 ], false);
        (Benchmarks.random ~seed:5 ~num_cores:4 (), 2, [ 6 ], true) ]
      [ (Benchmarks.random ~seed:5 ~num_cores:4 (), 2, [ 6 ], false);
        (Benchmarks.random ~seed:5 ~num_cores:4 (), 2, [ 6 ], true) ]
  in
  let saved = ref 0 and nodes = ref 0 and certified = ref 0 in
  let all_le_partition = ref true in
  let table, cells =
    List.split
      (List.concat_map
         (fun (soc, num_buses, widths, envelope) ->
           List.map
             (fun w ->
               let problem = Problem.make soc ~num_buses ~total_width:w in
               let p_max_mw =
                 if envelope then
                   Some (Pack.effective_budget problem ~p_max_mw:0.0 *. 1.3)
                 else None
               in
               let t0 = Clock.now_s () in
               let exact_row =
                 Sweep.solve_one
                   (List.hd (Sweep.cells soc ~num_buses ~widths:[ w ]))
               in
               let exact_s = Clock.elapsed_s ~since:t0 in
               let partition_t = Option.map snd exact_row.Sweep.solution in
               let incumbents = ref 0 in
               let t1 = Clock.now_s () in
               let r =
                 Race.solve_pack ?p_max_mw
                   ~on_event:(fun _ -> incr incumbents)
                   problem
               in
               let pack_s = Clock.elapsed_s ~since:t1 in
               let pack_t =
                 Option.map
                   (fun (p : Rect_sched.t) -> p.Rect_sched.makespan)
                   r.Race.packing
               in
               let bound_applies =
                 match exact_row.Sweep.solution with
                 | None -> false
                 | Some (arch, _) -> (
                     match
                       Pack.validate ?p_max_mw problem
                         (Rect_sched.of_architecture problem arch)
                     with
                     | Ok () -> true
                     | Error _ -> false)
               in
               let pack_le_partition =
                 match (pack_t, partition_t) with
                 | Some p, Some t -> (not bound_applies) || p <= t
                 | _ -> false
               in
               let winner = Option.value ~default:"-" r.Race.winner in
               let certificate =
                 Option.value ~default:"-" r.Race.certificate
               in
               (match (partition_t, pack_t) with
               | Some t, Some p when bound_applies -> saved := !saved + (t - p)
               | _ -> ());
               nodes := !nodes + r.Race.nodes;
               if certificate = "exact" then incr certified;
               all_le_partition := !all_le_partition && pack_le_partition;
               ( [ Soc.name soc;
                   string_of_int num_buses;
                   string_of_int w;
                   (match p_max_mw with
                   | Some p -> Printf.sprintf "%.0f" p
                   | None -> "-");
                   fmt_time_opt partition_t;
                   fmt_time_opt pack_t;
                   string_of_int r.Race.lower_bound;
                   winner;
                   certificate;
                   string_of_int !incumbents;
                   string_of_int r.Race.nodes;
                   yes_no pack_le_partition ],
                 Json.Obj
                   [ ("soc", Json.Str (Soc.name soc));
                     ("num_buses", Json.int num_buses);
                     ("total_width", Json.int w);
                     ("p_max_mw", json_opt (fun p -> Json.Num p) p_max_mw);
                     ("partition_t", json_opt Json.int partition_t);
                     ("pack_t", json_opt Json.int pack_t);
                     ("lower_bound", Json.int r.Race.lower_bound);
                     ("winner", Json.Str winner);
                     ("certificate", Json.Str certificate);
                     ("incumbents", Json.int !incumbents);
                     ("nodes", Json.int r.Race.nodes);
                     ("bound_applies", Json.Bool bound_applies);
                     ("pack_le_partition", Json.Bool pack_le_partition);
                     ("exact_s", Json.Num exact_s);
                     ("pack_s", Json.Num pack_s) ] ))
             widths)
         workloads)
  in
  print_string
    (Table.render
       ~headers:
         [ "soc"; "nb"; "W"; "p_max"; "T_part"; "T_pack"; "lb"; "winner";
           "cert"; "incumb"; "nodes"; "pack<=part" ]
       table);
  Printf.printf
    "\npack summary: %d cycles saved vs the partition optimum across %d \
     cell(s); %d exact-packer nodes total\n"
    !saved (List.length cells) !nodes;
  record sweep_doc
    [ ( "pack",
        Json.Obj
          [ ("workloads", Json.Arr cells);
            ("pack_le_partition_all", Json.Bool !all_le_partition);
            ("certified", Json.int !certified);
            ("exact_nodes", Json.int !nodes) ] ) ];
  if not !all_le_partition then
    print_endline "!! a packing lost to the partition optimum it subsumes"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment family.     *)

let bechamel_section () =
  section "TIMING" "bechamel micro-benchmarks";
  let open Bechamel in
  let s1 = Benchmarks.s1 () in
  let s2 = Benchmarks.s2 () in
  let p_small = Problem.make s1 ~num_buses:2 ~total_width:16 in
  let p_mid = Problem.make s1 ~num_buses:3 ~total_width:24 in
  let p_large = Problem.make s2 ~num_buses:3 ~total_width:24 in
  let tests =
    Test.make_grouped ~name:"soctam"
      [ Test.make ~name:"E2:exact_s1_nb2_w16"
          (Staged.stage (fun () -> ignore (Exact.solve p_small)));
        Test.make ~name:"E3:exact_s1_nb3_w24"
          (Staged.stage (fun () -> ignore (Exact.solve p_mid)));
        Test.make ~name:"E4:exact_s2_nb3_w24"
          (Staged.stage (fun () -> ignore (Exact.solve p_large)));
        Test.make ~name:"E2:ilp_s1_nb2_w16"
          (Staged.stage (fun () -> ignore (Ilp.solve p_small)));
        Test.make ~name:"A4:heuristic_s1"
          (Staged.stage (fun () -> ignore (Heuristics.solve p_small)));
        Test.make ~name:"E5:floorplan_s2"
          (Staged.stage (fun () -> ignore (Floorplan.place s2)));
        Test.make ~name:"F3:wiring_s2"
          (Staged.stage (fun () ->
               let fp = Floorplan.place s2 in
               ignore
                 (Routing.wiring fp
                    ~assignment:(Array.make (Soc.num_cores s2) 0)
                    ~widths:[| 4 |])));
        Test.make ~name:"F2:schedule_profile_s2"
          (Staged.stage (fun () ->
               let arch =
                 Architecture.make ~widths:[| 12; 12 |]
                   ~assignment:
                     (Array.init (Soc.num_cores s2) (fun i -> i mod 2))
               in
               let p = Problem.make s2 ~num_buses:2 ~total_width:24 in
               let sched = Rect_sched.of_architecture p arch in
               ignore (Profile.of_schedule p sched))) ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let est =
          match Analyze.OLS.estimates result with
          | Some (v :: _) -> v
          | Some [] | None -> Float.nan
        in
        [ name;
          Table.fmt_float ~decimals:0 est;
          Table.fmt_float ~decimals:6 (est /. 1e9) ]
        :: acc)
      results []
    |> List.sort compare
  in
  print_string (Table.render ~headers:[ "benchmark"; "ns/run"; "s/run" ] rows)

let () =
  let t0 = Clock.now_s () in
  print_endline
    "soctam benchmark harness - reproduction of Chakrabarty, DAC 2000";
  print_endline
    "(see DESIGN.md for the experiment index, EXPERIMENTS.md for analysis)";
  if quick then
    print_endline "(--quick: reduced width ranges, slow ablations skipped)";
  if sweep_only then begin
    table_e8 ();
    table_e11 ();
    table_e13 ();
    table_e9 ();
    table_e10 ();
    table_e14 ();
    table_e12 ()
  end
  else if quick then begin
    table_e1 ();
    table_e2 ();
    table_e3 ();
    table_a3 ();
    table_e8 ();
    table_e11 ();
    table_e13 ();
    table_e9 ();
    table_e10 ();
    table_e14 ();
    table_e12 ()
  end
  else begin
    table_e1 ();
    table_e2 ();
    table_e3 ();
    table_e4 ();
    table_e5 ();
    table_e6 ();
    table_e7 ();
    figure_f1 ();
    figure_f2 ();
    figure_f3 ();
    table_a1 ();
    table_a2 ();
    table_a3 ();
    table_a4 ();
    table_a5 ();
    table_a7 ();
    table_a8 ();
    table_a9 ();
    table_b1 ();
    figure_f4 ();
    table_a6 ();
    table_e8 ();
    table_e11 ();
    table_e13 ();
    table_e9 ();
    table_e10 ();
    table_e14 ();
    table_e12 ();
    bechamel_section ()
  end;
  Option.iter
    (fun path ->
      write_doc path sweep_doc;
      Printf.printf "wrote %s\n" path)
    json_path;
  Option.iter (fun path -> write_doc path service_doc) service_json_path;
  Printf.printf "\ntotal harness time: %.1f s\n" (Clock.elapsed_s ~since:t0)
