(* tamopt: command-line front end for SOC test access architecture
   design under place-and-route and power constraints. *)

module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Cost = Soctam_core.Cost
module Ilp = Soctam_core.Ilp_formulation
module Verify = Soctam_core.Verify
module Soc = Soctam_soc.Soc
module Core_def = Soctam_soc.Core_def
module Test_time = Soctam_soc.Test_time
module Floorplan = Soctam_layout.Floorplan
module Routing = Soctam_layout.Routing
module Layout_conflicts = Soctam_layout.Conflicts
module Power_conflicts = Soctam_power.Power_conflicts
module Power_model = Soctam_power.Power_model
module Rect_sched = Soctam_sched.Rect_sched
module Profile = Soctam_sched.Profile
module Gantt = Soctam_sched.Gantt
module Pack_solver = Soctam_pack.Pack
module Table = Soctam_report.Table
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep
module Obs = Soctam_obs.Obs
module Clock = Soctam_obs.Clock
module Trace = Soctam_obs.Trace
module Summary = Soctam_obs.Summary
module Json = Soctam_obs.Json
module Hist = Soctam_obs.Hist
module Addr = Soctam_service.Addr
module Client = Soctam_service.Client
module Protocol = Soctam_service.Protocol
module Metrics = Soctam_service.Metrics
module Service = Soctam_service.Service
module Oracle = Soctam_check.Oracle
module Fuzz = Soctam_check.Fuzz
module Proto_fuzz = Soctam_check.Proto_fuzz
module Corpus = Soctam_check.Corpus
module Store_torture = Soctam_check.Store_torture

(* Commands report a bad argument by raising [Invalid_argument], which
   each [run] prints as "error: …" with exit status 2. *)
let get_ok = function Ok v -> v | Error msg -> raise (Invalid_argument msg)

(* Instances are read with the wire's parsers, so [--soc], [--solver]
   and [--model] accept exactly what a tamoptd request does. *)
let lookup_soc spec = get_ok (Protocol.resolve_soc (Protocol.Named spec))

let parse_solver name =
  match Protocol.solver_of_string name with
  | Ok solver -> solver
  | Error _ ->
      raise (Invalid_argument (Printf.sprintf "unknown solver %S" name))

let parse_model name =
  get_ok (Result.map_error (( ^ ) "--model ") (Protocol.model_of_string name))

let parse_widths list =
  List.map
    (fun word ->
      match int_of_string_opt (String.trim word) with
      | Some w -> w
      | None ->
          raise (Invalid_argument (Printf.sprintf "%S is not a width" word)))
    (String.split_on_char ',' list)

let build_problem soc ~num_buses ~total_width ~model ~d_max ~p_max =
  Problem.make ~time_model:(parse_model model)
    ~constraints:(Protocol.constraints_of ~d_max_mm:d_max ~p_max_mw:p_max soc)
    soc ~num_buses ~total_width

let print_solution problem soc solution ~show_gantt =
  match solution with
  | None ->
      print_endline "No feasible architecture (constraints contradictory).";
      1
  | Some (arch, test_time) ->
      (match Verify.check problem arch ~claimed_time:test_time with
      | Ok () -> ()
      | Error msg -> Printf.printf "WARNING: verifier complaint: %s\n" msg);
      Printf.printf "Test time: %d cycles\n" test_time;
      let nb = Architecture.num_buses arch in
      let rows =
        List.init nb (fun bus ->
            let members = Architecture.bus_members arch ~bus in
            [ string_of_int bus;
              string_of_int arch.Architecture.widths.(bus);
              string_of_int (Cost.bus_time problem arch ~bus);
              String.concat " "
                (List.map
                   (fun i -> (Soc.core soc i).Core_def.name)
                   members) ])
      in
      print_string
        (Table.render
           ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Left ]
           ~headers:[ "bus"; "width"; "time"; "cores" ]
           rows);
      if show_gantt then begin
        print_newline ();
        print_string
          (Gantt.render problem (Rect_sched.of_architecture problem arch))
      end;
      0

(* Pack rows carry a packed schedule, not an architecture: print the
   placements (one rectangle per core), their Gantt, and — when an
   envelope is in force — the power profile. *)
let print_packing ?p_max_mw problem soc packing ~show_gantt =
  (match Pack_solver.validate ?p_max_mw problem packing with
  | Ok () -> ()
  | Error msg -> Printf.printf "WARNING: packing verifier complaint: %s\n" msg);
  Printf.printf "Test time: %d cycles (rectangle packing)\n"
    packing.Rect_sched.makespan;
  let rows =
    List.map
      (fun (p : Rect_sched.placement) ->
        [ (Soc.core soc p.core).Core_def.name;
          string_of_int p.width;
          Printf.sprintf "%d..%d" p.wire_lo (p.wire_lo + p.width - 1);
          string_of_int p.start;
          string_of_int p.finish ])
      packing.Rect_sched.placements
  in
  print_string
    (Table.render
       ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~headers:[ "core"; "width"; "wires"; "start"; "finish" ]
       rows);
  if show_gantt then begin
    print_newline ();
    print_string (Gantt.render problem packing)
  end;
  (match p_max_mw with
  | Some p ->
      let profile = Profile.of_schedule problem packing in
      Printf.printf "Peak power: %.1f mW (budget %.1f mW)\n"
        (Profile.peak profile)
        (Pack_solver.effective_budget problem ~p_max_mw:p);
      if show_gantt then begin
        print_newline ();
        print_string (Gantt.render_profile profile)
      end
  | None -> ());
  0

(* Tracing wrapper shared by solve and sweep: when [--trace] or
   [--profile] asked for observability, record [f], then export the
   Chrome trace and/or print the profile tables after [f]'s own
   output. *)
let with_observability ~trace ~profile f =
  if trace = None && not profile then f ()
  else begin
    Obs.enable ();
    let result = f () in
    Obs.disable ();
    let events, metrics = Obs.drain () in
    (match trace with
    | Some path ->
        Trace.write path ~metrics events;
        Printf.printf "trace: %d events -> %s\n" (List.length events) path
    | None -> ());
    if profile then begin
      let spans = Summary.spans_table (Obs.span_summary events) in
      let counters = Summary.counters_table metrics in
      if spans <> "" then begin
        print_newline ();
        print_string spans
      end;
      if counters <> "" then begin
        print_newline ();
        print_string counters
      end
    end;
    result
  end

open Cmdliner

let soc_arg =
  let doc =
    "SOC to optimize: s1, s2, s3, rnd:<seed>:<cores> or file:<path>."
  in
  Arg.(value & opt string "s1" & info [ "soc" ] ~docv:"SOC" ~doc)

let buses_arg =
  let doc = "Number of test buses." in
  Arg.(value & opt int 2 & info [ "b"; "buses" ] ~docv:"NB" ~doc)

let width_arg =
  let doc = "Total TAM width budget (wires)." in
  Arg.(value & opt int 16 & info [ "w"; "width" ] ~docv:"W" ~doc)

let model_arg =
  let doc = "Test-time model: serialization (paper) or scan." in
  Arg.(value & opt string "serialization" & info [ "model" ] ~docv:"MODEL" ~doc)

let d_max_arg =
  let doc =
    "Place-and-route budget in mm: cores further apart than this may not \
     share a bus."
  in
  Arg.(value & opt (some float) None & info [ "d-max" ] ~docv:"MM" ~doc)

let p_max_arg =
  let doc =
    "Power budget in mW: core pairs exceeding it are forced onto one bus."
  in
  Arg.(value & opt (some float) None & info [ "p-max" ] ~docv:"MW" ~doc)

let solver_arg =
  let doc =
    "Solver: exact (enumeration+DP), ilp, heuristic, race (anytime \
     portfolio against a shared incumbent: packing bound, budgeted DP \
     probe, greedy, annealing, then DP to the end), or pack \
     (rectangle packing: every core picks its own width, tests are \
     scheduled on the wire strip; --p-max additionally bounds the \
     instantaneous power of the packed schedule)."
  in
  Arg.(value & opt string "exact" & info [ "solver" ] ~docv:"SOLVER" ~doc)

let gantt_arg =
  let doc = "Print an ASCII Gantt chart of the resulting schedule." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let time_limit_arg =
  let doc =
    "Time limit in seconds: the ILP's search budget, and the deadline \
     of the race and pack solvers, which then answer with their best \
     incumbent, uncertified."
  in
  Arg.(value & opt float 60.0 & info [ "time-limit" ] ~docv:"S" ~doc)

let trace_arg =
  let doc =
    "Record solver-internals spans and write a Chrome trace-event JSON \
     file (load it at ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let profile_arg =
  let doc = "Print per-span and counter summary tables after solving." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let no_presolve_arg =
  let doc =
    "Disable the ILP presolve (co-assignment merging and exclusion \
     propagation). Results are identical; only search effort changes. \
     Escape hatch for debugging and differential testing."
  in
  Arg.(value & flag & info [ "no-presolve" ] ~doc)

let no_cuts_arg =
  let doc =
    "Disable ILP clique strengthening (the conflict-graph clique cover). \
     Results are identical; only search effort changes."
  in
  Arg.(value & flag & info [ "no-cuts" ] ~doc)

let no_seed_arg =
  let doc =
    "Do not prime ILP branch and bound with the greedy heuristic's \
     incumbent. Results are identical; only search effort changes \
     (compare the seeded_bound and node counts in --json output)."
  in
  Arg.(value & flag & info [ "no-seed" ] ~doc)

let sweep_solver_of_string ?ilp_time_limit ?(no_presolve = false)
    ?(no_cuts = false) ?(no_seed = false) ?p_max solver =
  match parse_solver solver with
  | Protocol.Exact -> Sweep.Exact
  | Protocol.Ilp ->
      Sweep.Ilp
        { time_limit_s = ilp_time_limit;
          presolve = not no_presolve;
          cuts = not no_cuts;
          seed = not no_seed }
  | Protocol.Heuristic -> Sweep.Heuristic
  | Protocol.Race -> Sweep.Race
  | Protocol.Pack -> Sweep.Pack { p_max_mw = p_max }

(* The rows+totals document shared by solve --json, sweep --json and
   the tamoptd responses. *)
let rows_json ?jobs ~soc ~num_buses ~solver rows =
  Json.Obj
    ([ ("soc", Json.Str (Soc.name soc));
       ("num_buses", Json.int num_buses);
       ("solver", Json.Str (Sweep.solver_name solver)) ]
    @ (match jobs with Some j -> [ ("jobs", Json.int j) ] | None -> [])
    @ [ ("rows", Json.Arr (List.map Sweep.json_of_row rows));
        ("totals", Sweep.json_of_totals (Sweep.totals rows)) ])

let write_json path doc =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc))

let jobs_arg =
  let doc =
    "Worker domains: 0 (the default) uses every core; 1 reproduces the \
     sequential loop bit-for-bit. Results are identical for every job \
     count — only the wall-clock changes."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs jobs =
  if jobs < 0 then
    raise (Invalid_argument (Printf.sprintf "--jobs %d: negative" jobs));
  if jobs = 0 then Domain.recommended_domain_count () else jobs

let solve_cmd =
  let json_arg =
    let doc =
      "Write the result as JSON to $(docv): a single-row document with \
       the same rows+totals schema as $(b,tamopt sweep --json) and the \
       tamoptd responses."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run soc_name num_buses total_width model d_max p_max solver gantt
      time_limit no_presolve no_cuts no_seed trace profile json_path =
    try
      let soc = lookup_soc soc_name in
      let problem =
        build_problem soc ~num_buses ~total_width ~model ~d_max ~p_max
      in
      let solver =
        sweep_solver_of_string ~ilp_time_limit:time_limit ~no_presolve
          ~no_cuts ~no_seed ?p_max solver
      in
      let cell =
        match
          Sweep.cells
            ~time_model:(Problem.time_model problem)
            ~constraints:(Problem.constraints problem)
            ~solver soc ~num_buses ~widths:[ total_width ]
        with
        | [ cell ] -> cell
        | _ -> assert false
      in
      with_observability ~trace ~profile @@ fun () ->
      let propagated = ref 0 in
      let row =
        match solver with
        | Sweep.Race | Sweep.Pack _ ->
            Sweep.solve_one ~deadline_s:(Clock.now_s () +. time_limit) cell
        | _ ->
            Sweep.solve_one
              ~on_ilp_stats:(fun st ->
                propagated := st.Ilp.propagated_nodes)
              cell
      in
      (match solver with
      | Sweep.Ilp _ ->
          if row.Sweep.seed_fallback then
            print_endline
              "note: branch and bound found nothing below its greedy seed; \
               the seed is shown, not proven optimal"
          else if not row.Sweep.optimal then
            print_endline "note: ILP budget expired; best-found shown";
          (match row.Sweep.seeded_bound with
          | Some b ->
              Printf.printf "ILP seed: greedy incumbent primed B&B at %d\n" b
          | None -> ());
          Printf.printf
            "ILP search: %d nodes (%d closed by propagation), %d LP \
             pivots (%d warm-started, %d cold, %d refactorizations), \
             depth %d, %.3f s\n\
             ILP model: %d clique rows, %d variables presolved away\n"
            row.Sweep.nodes !propagated row.Sweep.lp_pivots
            row.Sweep.warm_starts row.Sweep.cold_solves
            row.Sweep.refactorizations row.Sweep.max_depth
            row.Sweep.elapsed_s row.Sweep.cuts_added row.Sweep.presolve_fixed
      | Sweep.Race ->
          if not row.Sweep.optimal then
            print_endline
              "note: race deadline expired; best incumbent shown";
          Printf.printf "Race: winner %s, %d nodes, %.3f s\n"
            (match row.Sweep.winner with Some w -> w | None -> "none")
            row.Sweep.nodes row.Sweep.elapsed_s
      | Sweep.Pack _ ->
          if not row.Sweep.optimal then
            print_endline
              "note: pack race uncertified; best packing shown";
          Printf.printf "Pack race: winner %s, %d exact-packer nodes, %.3f s\n"
            (match row.Sweep.winner with Some w -> w | None -> "none")
            row.Sweep.nodes row.Sweep.elapsed_s
      | Sweep.Exact | Sweep.Heuristic -> ());
      (match json_path with
      | Some path ->
          write_json path (rows_json ~soc ~num_buses ~solver [ row ])
      | None -> ());
      (match solver with
      | Sweep.Pack _ -> (
          match row.Sweep.packing with
          | Some packing ->
              print_packing ?p_max_mw:p_max problem soc packing
                ~show_gantt:gantt
          | None ->
              print_endline "No packing found before the deadline.";
              1)
      | _ -> print_solution problem soc row.Sweep.solution ~show_gantt:gantt)
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  let term =
    Term.(
      const run $ soc_arg $ buses_arg $ width_arg $ model_arg $ d_max_arg
      $ p_max_arg $ solver_arg $ gantt_arg $ time_limit_arg
      $ no_presolve_arg $ no_cuts_arg $ no_seed_arg $ trace_arg $ profile_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Design one optimal test access architecture.")
    term

let sweep_cmd =
  let widths_arg =
    let doc = "Comma-separated list of total widths to sweep." in
    Arg.(value & opt string "16,24,32" & info [ "widths" ] ~docv:"LIST" ~doc)
  in
  let json_arg =
    let doc =
      "Write the sweep rows and totals as JSON to $(docv) — the same \
       schema as the bench harness's BENCH_sweep.json rows."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run soc_name num_buses widths model d_max p_max solver no_presolve
      no_cuts no_seed jobs trace profile json_path =
    try
      let soc = lookup_soc soc_name in
      let widths = parse_widths widths in
      (* Reuse the constraint/model plumbing of [build_problem] for the
         sweep cells: derive pairs once, sweep over widths in parallel. *)
      let probe =
        build_problem soc ~num_buses
          ~total_width:(List.fold_left max num_buses widths)
          ~model ~d_max ~p_max
      in
      let solver =
        sweep_solver_of_string ~no_presolve ~no_cuts ~no_seed ?p_max solver
      in
      let cells =
        Sweep.cells
          ~time_model:(Problem.time_model probe)
          ~constraints:(Problem.constraints probe)
          ~solver soc ~num_buses ~widths
      in
      let jobs = resolve_jobs jobs in
      with_observability ~trace ~profile @@ fun () ->
      let rows =
        Pool.with_pool ~num_domains:jobs (fun pool ->
            Sweep.run ~pool cells)
      in
      let totals = Sweep.totals rows in
      (match json_path with
      | Some path ->
          write_json path (rows_json ~jobs ~soc ~num_buses ~solver rows)
      | None -> ());
      let table_rows =
        List.map
          (fun row ->
            [ string_of_int row.Sweep.total_width;
              (match (row.Sweep.solution, row.Sweep.packing) with
              | Some (_, t), _ -> string_of_int t
              | None, Some p -> string_of_int p.Rect_sched.makespan
              | None, None -> "infeasible");
              string_of_int row.Sweep.nodes;
              string_of_int row.Sweep.lp_pivots;
              Table.fmt_float ~decimals:3 row.Sweep.elapsed_s ])
          rows
      in
      print_string
        (Table.render
           ~headers:[ "W"; "test time"; "nodes"; "pivots"; "cpu (s)" ]
           table_rows);
      if totals.Sweep.lp_pivots > 0 then
        Printf.printf
          "LP work: %d pivots; %d warm-started node LPs, %d cold solves, \
           %d refactorizations\n\
           ILP model: %d clique rows, %d variables presolved away\n"
          totals.Sweep.lp_pivots totals.Sweep.warm_starts
          totals.Sweep.cold_solves totals.Sweep.refactorizations
          totals.Sweep.cuts_added totals.Sweep.presolve_fixed;
      0
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  let term =
    Term.(
      const run $ soc_arg $ buses_arg $ widths_arg $ model_arg $ d_max_arg
      $ p_max_arg $ solver_arg $ no_presolve_arg $ no_cuts_arg
      $ no_seed_arg $ jobs_arg $ trace_arg $ profile_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep total TAM width in parallel and report optimal test times.")
    term

let info_cmd =
  let run soc_name =
    try
      let soc = lookup_soc soc_name in
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
      Printf.printf "SOC %s (%d cores)\n" (Soc.name soc) (Soc.num_cores soc);
      print_string
        (Table.render
           ~headers:
             [ "#"; "core"; "in"; "out"; "ff"; "ch"; "pat"; "mW"; "l_i";
               "tau_i" ]
           rows);
      let fp = Floorplan.place soc in
      let dw, dh = Floorplan.die_mm fp in
      Printf.printf "\nFloorplan %.1f x %.1f mm:\n%s" dw dh
        (Floorplan.sketch fp soc);
      Printf.printf "\nMax pairwise distance: %.2f mm; power budget floor: %.0f mW\n"
        (Layout_conflicts.max_distance fp)
        (Power_conflicts.feasible_p_max soc);
      let wiring =
        Routing.wiring fp
          ~assignment:(Array.make (Soc.num_cores soc) 0)
          ~widths:[| 1 |]
      in
      Printf.printf "Single-trunk tour over all cores: %.2f mm\n"
        wiring.Routing.total_mm;
      ignore (Power_model.total_power soc);
      0
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe an SOC: cores, floorplan, budgets.")
    Term.(const run $ soc_arg)

let plan_cmd =
  let widths_arg =
    let doc = "Comma-separated wire budgets for the trade-off curve." in
    Arg.(
      value
      & opt string "4,8,12,16,20,24,28,32,36,40,44,48"
      & info [ "widths" ] ~docv:"LIST" ~doc)
  in
  let run soc_name num_buses widths =
    try
      let soc = lookup_soc soc_name in
      let widths = parse_widths widths in
      let curve = Soctam_plan.Tradeoff.curve soc ~num_buses ~widths in
      let pareto = Soctam_plan.Tradeoff.pareto curve in
      print_string
        (Table.render
           ~headers:[ "W"; "optimal T" ]
           (List.map
              (fun pt ->
                [ string_of_int pt.Soctam_plan.Tradeoff.total_width;
                  string_of_int pt.Soctam_plan.Tradeoff.test_time ])
              pareto));
      (match Soctam_plan.Tradeoff.knee curve with
      | None -> print_endline "no knee (curve too short or too flat)"
      | Some knee ->
          Printf.printf "knee: W=%d (T=%d)\n"
            knee.Soctam_plan.Tradeoff.total_width
            knee.Soctam_plan.Tradeoff.test_time;
          let problem =
            Problem.make soc ~num_buses
              ~total_width:knee.Soctam_plan.Tradeoff.total_width
          in
          let fp = Floorplan.place soc in
          match Soctam_plan.Wire_opt.solve problem fp with
          | None -> print_endline "knee instance infeasible"
          | Some r ->
              Printf.printf
                "cheapest time-optimal routing at the knee: %.1f mm trunk \
                 (%d optima considered)\n"
                r.Soctam_plan.Wire_opt.trunk_mm
                r.Soctam_plan.Wire_opt.optima_enumerated;
              ignore
                (print_solution problem soc
                   (Some
                      ( r.Soctam_plan.Wire_opt.architecture,
                        r.Soctam_plan.Wire_opt.test_time ))
                   ~show_gantt:false));
      0
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Width/test-time trade-off curve, knee pick and wirelength \
          tie-breaking.")
    Term.(const run $ soc_arg $ buses_arg $ widths_arg)

(* ---- daemon client commands ---- *)

let connect_arg =
  let doc =
    "tamoptd address: unix:$(i,PATH) (or any string containing a slash), \
     tcp:$(i,HOST):$(i,PORT) or $(i,HOST):$(i,PORT)."
  in
  Arg.(
    value
    & opt string "unix:/tmp/tamoptd.sock"
    & info [ "connect" ] ~docv:"ADDR" ~doc)

let with_client addr f =
  match Addr.of_string addr with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok addr -> (
      match Client.connect addr with
      | exception Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "error: cannot reach tamoptd at %s: %s: %s %s\n"
            (Addr.to_string addr) fn (Unix.error_message err) arg;
          2
      | client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () -> f addr client))

let rpc_cmd =
  let line_arg =
    let doc = "The request: one JSON object, sent as one line." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)
  in
  let run connect line =
    with_client connect @@ fun _addr client ->
    (* Streamed exchanges ({"stream":true} race requests) push event
       lines before the final reply; print each as it arrives. *)
    match Client.rpc_stream client ~on_event:print_endline line with
    | exception End_of_file ->
        Printf.eprintf "error: daemon hung up\n";
        2
    | reply -> (
        print_endline reply;
        match Json.parse reply with
        | Ok reply when Protocol.reply_code reply = "ok" -> 0
        | Ok _ -> 3
        | Error _ -> 3)
  in
  Cmd.v
    (Cmd.info "rpc"
       ~doc:
         "Send one raw NDJSON request line to tamoptd, print every \
          pushed event line and the final reply (exit 3 on an ok:false \
          reply).")
    Term.(const run $ connect_arg $ line_arg)

let load_cmd =
  let requests_arg =
    let doc = "Total requests to send." in
    Arg.(value & opt int 200 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let concurrency_arg =
    let doc = "Client worker threads, each with its own connection." in
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~docv:"C" ~doc)
  in
  let hit_ratio_arg =
    let doc =
      "Target cache-hit ratio in [0,1]: the mix cycles over \
       round((1-R) * N) distinct instances, so after each instance's \
       first (miss) request the rest hit."
    in
    Arg.(value & opt float 0.5 & info [ "hit-ratio" ] ~docv:"R" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline_ms to attach." in
    Arg.(
      value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let sleep_arg =
    let doc =
      "Send sleep requests of $(docv) milliseconds instead of solves — \
       an admission-control stressor with a known per-request cost."
    in
    Arg.(
      value & opt (some float) None & info [ "sleep-ms" ] ~docv:"MS" ~doc)
  in
  let json_arg =
    let doc = "Write the load report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let shutdown_arg =
    let doc = "Send a shutdown request once the load completes." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let expect_store_hits_arg =
    let doc =
      "Fail (exit 1) unless the daemon's persistent result store \
       reports at least $(docv) hits after the run — the assertion \
       behind the restart-survival scenario: load a store-backed \
       daemon, kill -9 it, restart on the same --store directory and \
       re-run the mix with this flag."
    in
    Arg.(
      value & opt int 0 & info [ "expect-store-hits" ] ~docv:"N" ~doc)
  in
  let overload_arg =
    let doc =
      "After the main mix, fire $(docv) concurrent 100 ms sleep \
       requests in one open-loop burst (one connection each, no \
       pacing) to drive the daemon past its admission queue; the \
       report's \"overload\" section asserts every request was either \
       completed or explicitly shed — none silently dropped."
    in
    Arg.(value & opt int 0 & info [ "overload" ] ~docv:"N" ~doc)
  in
  let run connect requests concurrency hit_ratio soc_name num_buses
      total_width model solver deadline_ms sleep_ms json_path shutdown
      expect_store_hits overload =
    try
      if requests < 1 then raise (Invalid_argument "--requests < 1");
      if concurrency < 1 then raise (Invalid_argument "--concurrency < 1");
      if hit_ratio < 0.0 || hit_ratio > 1.0 then
        raise (Invalid_argument "--hit-ratio outside [0,1]");
      let solver = parse_solver solver in
      let time_model = parse_model model in
      let distinct =
        max 1
          (int_of_float
             (Float.round (float_of_int requests *. (1.0 -. hit_ratio))))
      in
      (* Request [i] targets instance [i mod distinct]; distinct
         instances differ in total width, so each is one canonical
         cache entry: first arrival a miss, the rest hits. *)
      let request_line i =
        let req =
          match sleep_ms with
          | Some ms -> Protocol.Sleep { ms }
          | None ->
              let instance =
                {
                  Protocol.soc_spec = Protocol.Named soc_name;
                  solver;
                  num_buses;
                  total_width = total_width + (i mod distinct);
                  time_model;
                  d_max_mm = None;
                  p_max_mw = None;
                }
              in
              Protocol.Solve { instance; deadline_ms; stream = false }
        in
        Json.to_string
          (Protocol.json_of_request ~id:(Json.int i)
             ~trace_id:(Printf.sprintf "load-%d" i) req)
      in
      let ok = Array.make requests false in
      let was_cached = Array.make requests false in
      let err_code = Array.make requests "" in
      let trace_echoed = Array.make requests false in
      let lat_ms = Array.make requests Float.nan in
      let next = ref 0 in
      let next_mutex = Mutex.create () in
      let fetch () =
        Mutex.lock next_mutex;
        let i = !next in
        if i < requests then incr next;
        Mutex.unlock next_mutex;
        if i < requests then Some i else None
      in
      let worker addr () =
        let client = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let rec loop () =
              match fetch () with
              | None -> ()
              | Some i ->
                  let started = Clock.now_s () in
                  (match Client.rpc_line client (request_line i) with
                  | exception End_of_file -> ()
                  | reply -> (
                      lat_ms.(i) <- (Clock.now_s () -. started) *. 1000.0;
                      match Json.parse reply with
                      | Error _ -> err_code.(i) <- "unparseable"
                      | Ok reply ->
                          let code = Protocol.reply_code reply in
                          ok.(i) <- code = "ok";
                          was_cached.(i) <-
                            (match Json.member "cached" reply with
                            | Some (Json.Bool b) -> b
                            | _ -> false);
                          trace_echoed.(i) <-
                            (match Json.member "trace_id" reply with
                            | Some (Json.Str s) ->
                                String.equal s
                                  (Printf.sprintf "load-%d" i)
                            | _ -> false);
                          if not ok.(i) then err_code.(i) <- code));
                  loop ()
            in
            loop ())
      in
      with_client connect @@ fun addr control ->
      let started = Clock.now_s () in
      let threads =
        List.init concurrency (fun _ -> Thread.create (worker addr) ())
      in
      List.iter Thread.join threads;
      let wall_s = Clock.now_s () -. started in
      let select pred =
        let out = ref [] in
        for i = requests - 1 downto 0 do
          if pred i then out := lat_ms.(i) :: !out
        done;
        Array.of_list !out
      in
      let completed = select (fun i -> ok.(i)) in
      let hits = select (fun i -> ok.(i) && was_cached.(i)) in
      let misses = select (fun i -> ok.(i) && not was_cached.(i)) in
      (* Client-observed percentiles go through the same log-bucket
         histogram the daemon uses (≤0.8% relative error), which makes
         the p999 field honest at any sample count the generator can
         produce. *)
      let latency samples = Hist.summary_json (Hist.of_samples samples) in
      let count_code c =
        let n = ref 0 in
        Array.iter (fun c' -> if String.equal c c' then incr n) err_code;
        !n
      in
      let error_codes =
        let seen = Hashtbl.create 8 in
        Array.iter
          (fun c ->
            if c <> "" && not (Hashtbl.mem seen c) then
              Hashtbl.add seen c (count_code c))
          err_code;
        Hashtbl.fold (fun c n acc -> (c, n) :: acc) seen []
        |> List.sort compare
      in
      let shed = count_code "overloaded" in
      let trace_echo_failures =
        let n = ref 0 in
        Array.iteri
          (fun i echoed -> if ok.(i) && not echoed then incr n)
          trace_echoed;
        !n
      in
      let errors = requests - Array.length completed in
      let throughput = float_of_int requests /. wall_s in
      (* Open-loop overload burst: every request is in flight at once,
         so with N > queue capacity the daemon must shed — and every
         burst request must come back with a definitive verdict. *)
      let overload_section =
        if overload <= 0 then []
        else begin
          let n = overload in
          let o_code = Array.make n "" in
          let one i () =
            match Client.connect addr with
            | exception Unix.Unix_error _ -> o_code.(i) <- "connect_failed"
            | client ->
                Fun.protect
                  ~finally:(fun () -> Client.close client)
                  (fun () ->
                    let line =
                      Json.to_string
                        (Protocol.json_of_request ~id:(Json.int i)
                           ~trace_id:(Printf.sprintf "ovl-%d" i)
                           (Protocol.Sleep { ms = 100.0 }))
                    in
                    match Client.rpc_line client line with
                    | exception End_of_file -> o_code.(i) <- "hangup"
                    | reply -> (
                        match Json.parse reply with
                        | Error _ -> o_code.(i) <- "unparseable"
                        | Ok reply -> o_code.(i) <- Protocol.reply_code reply))
          in
          let threads = List.init n (fun i -> Thread.create (one i) ()) in
          List.iter Thread.join threads;
          let count c =
            Array.fold_left
              (fun acc c' -> if String.equal c c' then acc + 1 else acc)
              0 o_code
          in
          let o_completed = count "ok" in
          let o_shed = count "overloaded" in
          let unaccounted =
            count "hangup" + count "connect_failed" + count "unparseable"
            + count ""
          in
          [ ( "overload",
              Json.Obj
                [ ("requests", Json.int n);
                  ("completed", Json.int o_completed);
                  ("shed", Json.int o_shed);
                  ( "shed_rate",
                    Json.Num (float_of_int o_shed /. float_of_int n) );
                  ( "other_errors",
                    Json.int (n - o_completed - o_shed - unaccounted) );
                  ("unaccounted", Json.int unaccounted);
                  ("accounted", Json.Bool (unaccounted = 0)) ] ) ]
        end
      in
      let daemon_stats =
        match
          Client.rpc control (Protocol.json_of_request Protocol.Stats)
        with
        | Ok reply when Protocol.reply_code reply = "ok" -> (
            match Json.member "result" reply with
            | Some stats -> stats
            | None -> Json.Null)
        | Ok _ | Error _ -> Json.Null
      in
      let report =
        Json.Obj
          ([ ("requests", Json.int requests);
            ("concurrency", Json.int concurrency);
            ("target_hit_ratio", Json.Num hit_ratio);
            ("distinct_instances", Json.int distinct);
            ("wall_s", Json.Num wall_s);
            ("throughput_rps", Json.Num throughput);
            ("completed", Json.int (Array.length completed));
            ("errors", Json.int errors);
            ("shed", Json.int shed);
            ( "shed_rate",
              Json.Num (float_of_int shed /. float_of_int requests) );
            ( "error_codes",
              Json.Obj
                (List.map (fun (c, n) -> (c, Json.int n)) error_codes) );
            ("trace_echo_failures", Json.int trace_echo_failures);
            ("cached", Json.int (Array.length hits));
            ( "latency",
              Json.Obj
                [ ("all", latency completed);
                  ("hit", latency hits);
                  ("miss", latency misses) ] );
            ("daemon", daemon_stats) ]
          @ overload_section)
      in
      (match json_path with
      | Some path -> write_json path report
      | None -> ());
      if shutdown then
        ignore (Client.rpc control (Protocol.json_of_request Protocol.Shutdown));
      let p50 a = Metrics.percentile a 0.50 in
      Printf.printf
        "load: %d requests, %d workers, %.2f s, %.1f req/s\n\
        \  ok %d, cached %d, errors %d, shed %d\n\
        \  p50 ms: all %.3f, hit %.3f, miss %.3f (p99 all %.3f, p999 \
         all %.3f)\n"
        requests concurrency wall_s throughput (Array.length completed)
        (Array.length hits) errors shed (p50 completed) (p50 hits)
        (p50 misses)
        (Metrics.percentile completed 0.99)
        (Hist.quantile (Hist.of_samples completed) 0.999);
      if trace_echo_failures > 0 then
        Printf.printf "  WARNING: %d replies failed to echo trace_id\n"
          trace_echo_failures;
      let store_hits =
        match Json.member "store" daemon_stats with
        | Some store -> (
            match Json.member "hits" store with
            | Some (Json.Num h) -> Some (int_of_float h)
            | _ -> None)
        | None -> None
      in
      (match store_hits with
      | Some h -> Printf.printf "  store hits (daemon total): %d\n" h
      | None -> ());
      let store_hit_shortfall =
        if expect_store_hits <= 0 then false
        else
          match store_hits with
          | Some h when h >= expect_store_hits -> false
          | Some h ->
              Printf.printf
                "  FAILED: expected >= %d store hits, daemon reports %d\n"
                expect_store_hits h;
              true
          | None ->
              Printf.printf
                "  FAILED: --expect-store-hits %d but the daemon reports \
                 no store\n"
                expect_store_hits;
              true
      in
      (match overload_section with
      | [ (_, Json.Obj o) ] ->
          let geti k =
            match List.assoc_opt k o with
            | Some (Json.Num x) -> int_of_float x
            | _ -> 0
          in
          Printf.printf
            "  overload: %d fired, %d completed, %d shed, %d unaccounted\n"
            (geti "requests") (geti "completed") (geti "shed")
            (geti "unaccounted")
      | _ -> ());
      let overload_unaccounted =
        match overload_section with
        | [ (_, Json.Obj o) ] -> (
            match List.assoc_opt "accounted" o with
            | Some (Json.Bool false) -> 1
            | _ -> 0)
        | _ -> 0
      in
      if
        errors > 0 || trace_echo_failures > 0 || overload_unaccounted > 0
        || store_hit_shortfall
      then 1
      else 0
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  let term =
    Term.(
      const run $ connect_arg $ requests_arg $ concurrency_arg
      $ hit_ratio_arg $ soc_arg $ buses_arg $ width_arg $ model_arg
      $ solver_arg $ deadline_arg $ sleep_arg $ json_arg $ shutdown_arg
      $ expect_store_hits_arg $ overload_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive tamoptd with a concurrent request mix and report \
          throughput, latency percentiles (to p999), shed and error \
          counts, and optionally an open-loop overload burst.")
    term

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"S" ~doc)
  in
  let once_arg =
    let doc =
      "Print one snapshot and exit without clearing the screen — for \
       scripts and CI."
    in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let run connect interval once =
    if interval <= 0.0 then begin
      Printf.eprintf "error: --interval must be positive\n";
      2
    end
    else
      with_client connect @@ fun addr client ->
      let get path json =
        List.fold_left
          (fun acc key -> Option.bind acc (Json.member key))
          (Some json) path
      in
      let num path json =
        match get path json with Some (Json.Num x) -> x | _ -> Float.nan
      in
      let inum path json =
        match get path json with
        | Some (Json.Num x) -> int_of_float x
        | _ -> 0
      in
      let prev = ref None in
      let show stats =
        let now = Clock.now_s () in
        let uptime = num [ "uptime_s" ] stats in
        let received = inum [ "requests"; "received" ] stats in
        let rps =
          match !prev with
          | Some (t0, r0) when now -. t0 > 1e-9 ->
              float_of_int (received - r0) /. (now -. t0)
          | _ -> if uptime > 0.0 then float_of_int received /. uptime else 0.0
        in
        prev := Some (now, received);
        let hits = inum [ "cache"; "hits" ] stats in
        let misses = inum [ "cache"; "misses" ] stats in
        let hit_ratio =
          if hits + misses = 0 then 0.0
          else float_of_int hits /. float_of_int (hits + misses)
        in
        let overloaded = inum [ "requests"; "overloaded" ] stats in
        let shed_rate =
          if received = 0 then 0.0
          else float_of_int overloaded /. float_of_int received
        in
        Printf.printf "tamoptd %s — up %.0f s%s\n"
          (Addr.to_string addr) uptime
          (match Json.member "shutting_down" stats with
          | Some (Json.Bool true) -> "  [DRAINING]"
          | _ -> "");
        Printf.printf
          "rps %8.1f   in-flight %d/%d   shed rate %5.2f%% (%d)\n" rps
          (inum [ "queue"; "depth" ] stats)
          (inum [ "queue"; "capacity" ] stats)
          (100.0 *. shed_rate) overloaded;
        Printf.printf
          "requests: %d received, %d completed, %d failed, %d malformed\n"
          received
          (inum [ "requests"; "completed" ] stats)
          (inum [ "requests"; "failed" ] stats)
          (inum [ "requests"; "malformed" ] stats);
        Printf.printf
          "cache: %5.1f%% hit (%d hits, %d misses, %d evictions, %d/%d \
           entries)\n"
          (100.0 *. hit_ratio) hits misses
          (inum [ "cache"; "evictions" ] stats)
          (inum [ "cache"; "length" ] stats)
          (inum [ "cache"; "capacity" ] stats);
        Printf.printf "%-12s %10s %10s %10s %10s %8s\n" "latency(ms)" "p50"
          "p95" "p99" "p999" "count";
        List.iter
          (fun key ->
            let p q = num [ "latency"; key; q ] stats in
            Printf.printf "%-12s %10.3f %10.3f %10.3f %10.3f %8d\n" key
              (p "p50_ms") (p "p95_ms") (p "p99_ms") (p "p999_ms")
              (inum [ "latency"; key; "count" ] stats))
          [ "hit"; "miss"; "queue_wait"; "solve" ];
        (match Json.member "race_wins" stats with
        | Some (Json.Obj []) | None -> ()
        | Some (Json.Obj wins) ->
            Printf.printf "race wins:";
            List.iter
              (fun (engine, n) ->
                match n with
                | Json.Num x ->
                    Printf.printf "  %s %d" engine (int_of_float x)
                | _ -> ())
              wins;
            print_newline ()
        | Some _ -> ());
        flush stdout
      in
      let rec loop () =
        match
          Client.rpc client (Protocol.json_of_request Protocol.Stats)
        with
        | exception End_of_file ->
            Printf.eprintf "tamopt top: daemon hung up\n";
            2
        | Error msg ->
            Printf.eprintf "tamopt top: %s\n" msg;
            2
        | Ok reply when Protocol.reply_code reply <> "ok" ->
            Printf.eprintf "tamopt top: stats request refused\n";
            2
        | Ok reply ->
            let stats =
              Option.value ~default:Json.Null (Json.member "result" reply)
            in
            if not once then print_string "\027[2J\027[H";
            show stats;
            if once then 0
            else begin
              Thread.delay interval;
              loop ()
            end
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running tamoptd: request rate, \
          queue depth, shed rate, cache hit ratio, latency percentiles \
          (p50/p99/p999) and per-engine race wins, refreshed every \
          --interval seconds (--once for a single snapshot).")
    Term.(const run $ connect_arg $ interval_arg $ once_arg)

let fuzz_cmd =
  let seed_arg =
    let env =
      Cmd.Env.info "SOCTAM_FUZZ_SEED"
        ~doc:"Default for $(b,--seed); the flag wins when both are given."
    in
    let doc = "Base seed; fuzz instance $(i,i) is derived from seed + i." in
    Arg.(value & opt int 0 & info [ "seed" ] ~env ~docv:"S" ~doc)
  in
  let budget_arg =
    let doc = "Number of instances (or protocol frames) to throw." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let shrink_arg =
    let doc = "Greedily minimize a failing instance before reporting it." in
    Arg.(value & flag & info [ "shrink" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Write the (shrunk) repro of a failure into $(docv) as a corpus \
       entry replayed by the test suite."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let break_arg =
    let doc =
      Printf.sprintf
        "Inject an artificial fault (harness self-test; the run \
         $(i,should) fail). Solver faults: %s. Store faults (with \
         $(b,--store)): %s."
        (String.concat ", " Oracle.fault_names)
        (String.concat ", "
           (List.filter (fun n -> n <> "none") Store_torture.fault_names))
    in
    Arg.(value & opt (some string) None & info [ "break" ] ~docv:"FAULT" ~doc)
  in
  let store_arg =
    let doc =
      "Torture the persistent result store instead of the solvers: \
       seeded schedules of appends, kill-at-byte torn writes, targeted \
       bit flips, tail truncations, compactions, concurrent readers and \
       crash-reopens, checked against a model oracle (never serve a \
       frame that fails its check, never lose an acknowledged record)."
    in
    Arg.(value & flag & info [ "store" ] ~doc)
  in
  let proto_arg =
    let doc =
      "Fuzz the NDJSON protocol instead of the solvers: throw malformed \
       frames at an in-process service and check every reply is a \
       well-formed JSON error or result."
    in
    Arg.(value & flag & info [ "proto" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a corpus entry (or every *.soc / *.fault entry in a \
       directory) through the oracle instead of fuzzing."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH" ~doc)
  in
  let max_cores_arg =
    let doc = "Upper bound on generated SOC core counts (default 6)." in
    Arg.(value & opt (some int) None & info [ "max-cores" ] ~docv:"N" ~doc)
  in
  let pack_arg =
    let doc =
      "Bias generated instances toward the rectangle-packing family: \
       wider width budgets, extra co-assignment pairs and an \
       instantaneous power envelope on every instance."
    in
    Arg.(value & flag & info [ "pack" ] ~doc)
  in
  let replay_path path =
    let entries =
      if Sys.is_directory path then
        match Corpus.load_dir path with
        | Ok entries -> entries
        | Error msg -> raise (Invalid_argument msg)
      else
        match Corpus.load_file path with
        | Ok entry -> [ (Filename.basename path, entry) ]
        | Error msg -> raise (Invalid_argument msg)
    in
    let failed =
      List.filter_map
        (fun (name, entry) ->
          match Fuzz.replay entry with
          | Ok () ->
              Printf.printf "replay %-40s ok (%s)\n" name
                entry.Corpus.property;
              None
          | Error f ->
              Printf.printf "replay %-40s FAILED %s: %s\n" name
                f.Oracle.property f.Oracle.detail;
              Some name)
        entries
    in
    Printf.printf "replay: %d entries, %d failed\n" (List.length entries)
      (List.length failed);
    if failed = [] then 0 else 1
  in
  let replay_fault_path path =
    let files =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort compare
        |> List.filter (fun n -> Filename.check_suffix n ".fault")
        |> List.map (Filename.concat path)
      else [ path ]
    in
    if files = [] then
      raise (Invalid_argument (path ^ ": no .fault entries"));
    let failed =
      List.filter_map
        (fun file ->
          match Store_torture.load_file file with
          | Error msg ->
              Printf.printf "replay %-40s UNREADABLE: %s\n"
                (Filename.basename file) msg;
              Some file
          | Ok sched -> (
              match Store_torture.replay sched with
              | Ok () ->
                  Printf.printf "replay %-40s ok (healthy store)\n"
                    (Filename.basename file);
                  None
              | Error f ->
                  Printf.printf "replay %-40s FAILED at op %d: %s\n"
                    (Filename.basename file) f.Store_torture.op_index
                    f.Store_torture.message;
                  Some file))
        files
    in
    Printf.printf "replay: %d entries, %d failed\n" (List.length files)
      (List.length failed);
    if failed = [] then 0 else 1
  in
  let run seed budget shrink corpus_dir brk proto store replay max_cores
      pack no_presolve no_cuts =
    try
      if budget < 0 then raise (Invalid_argument "--budget < 0");
      let log = print_endline in
      if store then begin
        let fault =
          match brk with
          | None -> Store_torture.No_fault
          | Some s -> (
              match Store_torture.fault_of_string s with
              | Ok f -> f
              | Error msg -> raise (Invalid_argument msg))
        in
        match replay with
        | Some path -> replay_fault_path path
        | None ->
            let outcome =
              Store_torture.run ~log ~fault ~shrink ?corpus_dir ~seed
                ~budget ()
            in
            (match outcome.Store_torture.failure with
            | None ->
                log
                  (Printf.sprintf
                     "store torture: %d schedules clean (seed %d)"
                     outcome.Store_torture.executed seed)
            | Some r ->
                log
                  (Printf.sprintf
                     "store torture FAILED: seed %d, op %d: %s"
                     r.Store_torture.case_seed
                     r.Store_torture.failure.Store_torture.op_index
                     r.Store_torture.failure.Store_torture.message));
            if Option.is_none outcome.Store_torture.failure then 0 else 1
      end
      else
      let fault =
        match brk with
        | None -> Oracle.No_fault
        | Some s -> (
            match Oracle.fault_of_string s with
            | Ok f -> f
            | Error msg -> raise (Invalid_argument msg))
      in
      if proto then
        Pool.with_pool ~num_domains:2 (fun pool ->
            (* Capture the structured log in memory: the storm must not
               be able to smuggle a second event onto one line. *)
            let captured = ref [] in
            let capture_mutex = Mutex.create () in
            let request_log =
              Soctam_obs.Log.create
                (Soctam_obs.Log.Fn
                   (fun line ->
                     Mutex.lock capture_mutex;
                     captured := line :: !captured;
                     Mutex.unlock capture_mutex))
            in
            let service = Service.create ~log:request_log ~pool () in
            match
              Proto_fuzz.run ~log ~handle:(Service.handle_line service)
                ~seed ~budget ()
            with
            | Ok () -> (
                match Proto_fuzz.check_log_lines (List.rev !captured) with
                | Ok () ->
                    log
                      (Printf.sprintf
                         "proto-fuzz: %d structured log lines all valid"
                         (List.length !captured));
                    0
                | Error msg ->
                    Printf.eprintf "proto-fuzz log contract FAILED: %s\n"
                      msg;
                    1)
            | Error msg ->
                Printf.eprintf "proto-fuzz FAILED: %s\n" msg;
                1)
      else
        match replay with
        | Some path -> replay_path path
        | None ->
            let outcome =
              Fuzz.run ~log ~fault ~shrink ?corpus_dir ?max_cores
                ~pack_bias:pack ~presolve:(not no_presolve)
                ~cuts:(not no_cuts) ~seed ~budget ()
            in
            if Option.is_none outcome.Fuzz.failure then 0 else 1
    with Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  in
  let term =
    Term.(
      const run $ seed_arg $ budget_arg $ shrink_arg $ corpus_arg
      $ break_arg $ proto_arg $ store_arg $ replay_arg $ max_cores_arg
      $ pack_arg $ no_presolve_arg $ no_cuts_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-fuzz the solver stack (exit 1 on a genuine \
          cross-solver disagreement): every instance is solved by the \
          exact, ILP, DP, heuristic and annealing engines plus the \
          racing portfolio and their answers cross-checked, together \
          with metamorphic properties (core relabelling, width and \
          constraint monotonicity, warm vs cold ILP starts).")
    term

let () =
  let doc =
    "SOC test access architecture design under place-and-route and power \
     constraints (reproduction of Chakrabarty, DAC 2000)"
  in
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "tamopt" ~version:"1.0.0" ~doc)
          [ solve_cmd; sweep_cmd; info_cmd; plan_cmd; load_cmd; top_cmd;
            rpc_cmd;
            fuzz_cmd ]))
