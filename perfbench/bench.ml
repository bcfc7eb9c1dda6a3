(* The tamoptd benchmark harness. See README.md in this directory.

   bench.exe --workload W --seed N --seconds S --trace 0|1
             --daemon PATH [--nproc N] [--commit SHA]

   runs one workload against a spawned daemon and prints, as its last
   line, {"correct","attempted","failed","metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. With
   --replay-out FILE it is instead the child process that performs the
   traced in-process replay and writes its report to FILE. *)

module Json = Soctam_obs.Json
module Clock = Soctam_obs.Clock

let state_dir = ".perfbench"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  nproc : int;
  commit : string;
  replay_out : string option;
  screen : (int * int) option;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload hot|ilp_cold|store_churn --seed N --seconds \
     S --trace 0|1 --daemon PATH [--nproc N] [--commit SHA] [--replay-out \
     FILE]\n\
     \       bench.exe --screen-ilp LO:HI";
  exit 2

let parse_args () =
  let a =
    ref
      { workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        daemon = "";
        nproc = Domain.recommended_domain_count ();
        commit = "unknown";
        replay_out = None;
        screen = None }
  in
  let rec go = function
    | [] -> ()
    | k :: v :: rest ->
        (match k with
        | "--workload" -> a := { !a with workload = v }
        | "--seed" -> a := { !a with seed = int_of_string v }
        | "--seconds" -> a := { !a with seconds = float_of_string v }
        | "--trace" -> a := { !a with trace = v = "1" }
        | "--daemon" -> a := { !a with daemon = v }
        | "--nproc" -> a := { !a with nproc = int_of_string v }
        | "--commit" -> a := { !a with commit = v }
        | "--replay-out" -> a := { !a with replay_out = Some v }
        | "--screen-ilp" ->
            Scanf.sscanf v "%d:%d" (fun lo hi ->
                a := { !a with workload = "ilp_cold"; screen = Some (lo, hi) })
        | _ -> usage ());
        go rest
    | [ _ ] -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload Workload.names) then usage ();
  !a

(* ---- small helpers ---- *)

let quantile = Drive.quantile
let median_of l = quantile 0.5 (Array.of_list l)

(* The timed phase cut into [windows] equal slices by completion time:
   a short stall on a shared host then moves one slice, not the median
   of them. Returns throughput, p50 and p99, each the median over the
   slices; p99 is taken over the whole phase unless every slice holds
   enough requests for ten samples beyond its own p99. *)
let windows = 5

let windowed (p : Drive.phase) ~ok =
  let span = p.elapsed_s /. float windows in
  let slice i = min (windows - 1) (int_of_float (p.done_s.(i) /. span)) in
  let counts = Array.make windows 0 and lats = Array.make windows [] in
  Array.iteri
    (fun i lat ->
      let w = slice i in
      if ok i then counts.(w) <- counts.(w) + 1;
      lats.(w) <- lat :: lats.(w))
    p.lat_ms;
  let lats = Array.map Array.of_list lats in
  let per_slice f = median_of (Array.to_list (Array.map f lats)) in
  ( median_of (Array.to_list (Array.map (fun c -> float c /. span) counts)),
    per_slice (quantile 0.5),
    if Array.for_all (fun l -> Array.length l >= Drive.min_requests) lats then
      per_slice (quantile 0.99)
    else quantile 0.99 p.lat_ms )

(* Filesystem type of [path], from the longest matching mount point. *)
let fs_type path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let prefix m =
    m = "/"
    || String.length path >= String.length m
       && String.sub path 0 (String.length m) = m
       && (String.length path = String.length m || path.[String.length m] = '/')
  in
  try
    In_channel.with_open_text "/proc/mounts" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.fold_left
         (fun (best, ty) line ->
           match String.split_on_char ' ' line with
           | _ :: m :: t :: _ when prefix m && String.length m >= String.length best ->
               (m, t)
           | _ -> (best, ty))
         ("", "unknown")
    |> snd
  with Sys_error _ -> "unknown"

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let metric ~unit v = Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]

(* Per-layer units follow from the metric names. *)
let unit_of name =
  let ends s = Filename.check_suffix name s in
  let has s =
    let n = String.length s in
    let rec go i = i + n <= String.length name && (String.sub name i n = s || go (i + 1)) in
    go 0
  in
  if ends "_us" || has "us_per_" then "us"
  else if ends "_ms" then "ms"
  else if ends "_pct" then "%"
  else if ends "_bytes" || ends "_per_record" then "bytes"
  else if ends "_ratio" || ends "_share" then "ratio"
  else if ends "words_per_req" then "words"
  else "count"

(* ---- the traced replay, in a child process ---- *)

let replay_child a out =
  let w = Workload.make ~name:a.workload a.seed in
  let dir = Filename.dirname out in
  let trace_path =
    Filename.concat (Filename.concat state_dir "out")
      (Printf.sprintf "%s-%d.trace.json" a.workload a.seed)
  in
  Daemon.mkdir_p (Filename.dirname trace_path);
  let report = Replay.run w ~dir ~trace_path in
  write_file out (Json.to_string (Replay.json_of_report report))

let run_replay a ~dir =
  let out = Filename.concat dir "replay.json" in
  let args =
    [| Sys.executable_name; "--workload"; a.workload; "--seed";
       string_of_int a.seed; "--replay-out"; out |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
      match Json.parse (In_channel.with_open_text out In_channel.input_all) with
      | Ok j -> j
      | Error msg -> failwith ("replay report: " ^ msg))
  | _ -> failwith "replay process failed"

(* ---- screening the MILP pool ---- *)

(* Prints the pool candidates in [lo, hi) whose MILP answer, computed
   as the daemon computes it, is not the [Exact] optimum with a
   verified architecture: the contents of known_bad.ml. *)
let screen lo hi =
  for i = lo to hi - 1 do
    let inst = Workload.ilp_candidate i in
    let soc = Workload.soc_of inst in
    let cell =
      List.hd
        (Soctam_engine.Sweep.cells ~time_model:inst.time_model
           ~constraints:(Oracle.constraints_of soc inst)
           ~solver:(Replay.sweep_solver inst) soc ~num_buses:inst.num_buses
           ~widths:[ inst.total_width ])
    in
    let row = Soctam_engine.Sweep.solve_one cell in
    let good =
      row.optimal
      && Option.map snd row.solution = Oracle.reference inst
      &&
      match row.solution with
      | Some (arch, t) ->
          Result.is_ok (Soctam_core.Verify.check (Oracle.problem inst) arch ~claimed_time:t)
      | None -> true
    in
    if not good then Printf.printf "%d\n%!" i
  done

(* ---- "where the time goes" ---- *)

let print_ownership workload report =
  Printf.printf "where the time goes (%s, traced replay, self time by layer):\n"
    workload;
  match Json.member "ownership" report with
  | Some (Json.Arr rows) ->
      List.iter
        (fun row ->
          let p = match Json.member "percentile" row with Some (Json.Str s) -> s | _ -> "?" in
          let ms = Daemon.num_at row [ "wall_ms" ] in
          let layers =
            match Json.member "layers" row with
            | Some (Json.Obj ls) ->
                List.filteri (fun i _ -> i < 4)
                  (List.map (fun (l, v) -> match v with Json.Num f -> (l, f) | _ -> (l, 0.0)) ls)
            | _ -> []
          in
          let owner = match layers with (l, _) :: _ -> l | [] -> "-" in
          Printf.printf "  %-4s %9.3f ms  owner %-13s %s\n" p ms owner
            (String.concat ", "
               (List.map (fun (l, f) -> Printf.sprintf "%s %.1f%%" l f) layers)))
        rows
  | _ -> ()

(* ---- main ---- *)

let main a =
  let w = Workload.make ~name:a.workload a.seed in
  let dir = Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Daemon.mkdir_p dir;
  let jobs = max 1 a.nproc in
  let connections = max 1 (min w.connections a.nproc) in
  let queue = 64 in
  let config =
    { Daemon.exe = a.daemon; jobs; cache = w.cache; queue; store_dir = None }
  in
  let r = Drive.run w config ~dir ~connections ~seconds:a.seconds in
  let failed = List.length r.failures in
  let ok = r.attempted - failed in
  List.iteri
    (fun i (f : Drive.failure) ->
      if i < 5 then Printf.eprintf "request %d failed: %s\n" f.index f.reason)
    r.failures;
  (* Work fingerprint: the same code and seed must repeat it exactly. *)
  let fp_json =
    Json.to_string
      (Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.fingerprint))
  in
  let fp_dir = Filename.concat state_dir "fingerprints" in
  Daemon.mkdir_p fp_dir;
  let fp_file =
    Filename.concat fp_dir
      (Printf.sprintf "%s-%d-%s.json" a.workload a.seed
         (Digest.to_hex
            (Digest.string
               (Digest.file a.daemon ^ Digest.file Sys.executable_name))))
  in
  let fp_problems =
    if Sys.file_exists fp_file then
      let before = In_channel.with_open_text fp_file In_channel.input_all in
      if before = fp_json then []
      else [ Printf.sprintf "work fingerprint %s differs from %s" fp_json before ]
    else (write_file fp_file fp_json; [])
  in
  let replay = if a.trace then Some (run_replay a ~dir) else None in
  let replay_problems =
    match replay with
    | None -> []
    | Some rep ->
        let replay_rows =
          match Json.member "fingerprint" rep with
          | Some (Json.Obj kvs) ->
              List.map (fun (k, v) -> (k, match v with Json.Num f -> int_of_float f | _ -> -1)) kvs
          | _ -> []
        in
        let un = Daemon.num_at rep [ "unattributed_pct" ] in
        (if replay_rows <> []
            && List.for_all (fun (k, v) -> List.assoc_opt k r.fingerprint = Some v) replay_rows
         then []
         else [ "replay work fingerprint differs from the daemon run's" ])
        @
        if un <= Replay.tolerance_pct then []
        else
          [ Printf.sprintf "per-layer self times leave %.2f%% of replay wall time unattributed (tolerance %.1f%%)"
              un Replay.tolerance_pct ]
  in
  let problems = r.problems @ fp_problems @ replay_problems in
  List.iter (Printf.eprintf "check failed: %s\n") problems;
  let correct = failed = 0 && problems = [] in
  let t = r.timed in
  let failed_at = Hashtbl.create 16 in
  List.iter (fun (f : Drive.failure) -> Hashtbl.replace failed_at f.index ()) r.failures;
  let throughput, p50, p99 =
    windowed t ~ok:(fun i -> not (Hashtbl.mem failed_at (t.offset + i)))
  in
  let machine =
    Json.Obj
      [ ("nproc", Json.int a.nproc);
        ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str a.commit);
        ("workload", Json.Str a.workload);
        ("seed", Json.int a.seed);
        ("daemon_jobs", Json.int jobs);
        ("daemon_cache", Json.int w.cache);
        ("daemon_queue", Json.int queue);
        ("connections", Json.int connections);
        ("loop", Json.Str "closed");
        ("store_fs", Json.Str (if w.store then fs_type dir else "none"));
        ("timed_s", Json.Num t.elapsed_s);
        ("timed_requests", Json.int t.n);
        ("cpu_steal_pct", Json.Arr (List.map (fun x -> Json.Num x) r.steals));
        ("setup_s_each", Json.Arr (List.map (fun s -> Json.Num s) r.setup_s)) ]
  in
  let metrics =
    match replay with
    | None ->
        [ ("throughput_rps", metric ~unit:"1/s" throughput);
          ("latency_p50_ms", metric ~unit:"ms" p50);
          ("latency_p99_ms", metric ~unit:"ms" p99);
          ("success_rate", metric ~unit:"ratio" (float ok /. float (max 1 r.attempted)));
          ("setup_s", metric ~unit:"s" (median_of r.setup_s));
          ("peak_rss_mb", metric ~unit:"MiB" r.peak_rss_mb) ]
    | Some rep ->
        (* The class most timed replies fall in, and the daemon's own
           latency histogram for it. *)
        let cls, hist =
          List.fold_left
            (fun (bc, bh) (c, h) ->
              if Drive.count c t.src > Drive.count bc t.src then (c, h) else (bc, bh))
            ('l', "hit")
            [ ('s', "store_hit"); ('f', "miss") ]
        in
        let client =
          Array.of_list
            (List.filteri (fun i _ -> Bytes.get t.src i = cls) (Array.to_list t.lat_ms))
        in
        let server_us =
          1000.0 *. (quantile 0.5 client -. Daemon.num_at r.stats [ "latency"; hist; "p50_ms" ])
        in
        [ ("server.overhead_us", metric ~unit:"us" server_us);
          ( "pool.queue_wait_p50_ms",
            metric ~unit:"ms" (Daemon.num_at r.stats [ "latency"; "queue_wait"; "p50_ms" ]) );
          ( "pool.queue_wait_p99_ms",
            metric ~unit:"ms" (Daemon.num_at r.stats [ "latency"; "queue_wait"; "p99_ms" ]) ) ]
        @ (match Json.member "metrics" rep with
          | Some (Json.Obj kvs) ->
              List.map
                (fun (k, v) ->
                  (k, metric ~unit:(unit_of k) (match v with Json.Num f -> f | _ -> 0.0)))
                kvs
          | _ -> [])
  in
  let out_dir = Filename.concat state_dir "out" in
  Daemon.mkdir_p out_dir;
  write_file
    (Filename.concat out_dir
       (Printf.sprintf "%s-%d-trace%d.json" a.workload a.seed (if a.trace then 1 else 0)))
    (Json.to_string_pretty
       (Json.Obj
          ([ ("machine", machine);
             ("fingerprint", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.fingerprint));
             ("daemon_stats", r.stats);
             ("metrics", Json.Obj metrics);
             ("problems", Json.Arr (List.map (fun s -> Json.Str s) problems)) ]
          @ match replay with Some rep -> [ ("replay", rep) ] | None -> [])));
  Daemon.rm_rf dir;
  Printf.printf "machine %s\n" (Json.to_string machine);
  Option.iter (print_ownership a.workload) replay;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.int r.attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics) ]))

let () =
  let a = parse_args () in
  match (a.screen, a.replay_out) with
  | Some (lo, hi), _ -> screen lo hi
  | None, Some out -> replay_child a out
  | None, None ->
      if not (Sys.file_exists a.daemon) then usage ();
      (* A hung daemon must not hang the benchmark. *)
      ignore
        (Thread.create
           (fun () ->
             Thread.delay 170.0;
             prerr_endline "bench: timed out";
             Daemon.kill_all ();
             Stdlib.exit 3)
           ());
      (try main a
       with e ->
         Daemon.kill_all ();
         Printf.eprintf "bench: %s\n" (Printexc.to_string e);
         exit 1);
      exit 0
