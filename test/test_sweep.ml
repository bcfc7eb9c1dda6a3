module Problem = Soctam_core.Problem
module Architecture = Soctam_core.Architecture
module Exact = Soctam_core.Exact
module Benchmarks = Soctam_soc.Benchmarks
module Test_time = Soctam_soc.Test_time
module Pool = Soctam_engine.Pool
module Sweep = Soctam_engine.Sweep

(* ---- Pool. ---- *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~num_domains:jobs (fun pool ->
          Alcotest.(check int) "size" jobs (Pool.num_domains pool);
          let input = Array.init 100 Fun.id in
          let out = Pool.map pool ~f:(fun x -> x * x) input in
          Alcotest.(check (array int))
            (Printf.sprintf "squares, %d domains" jobs)
            (Array.init 100 (fun i -> i * i))
            out))
    [ 1; 2; 4 ]

let test_pool_empty_and_reuse () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map pool ~f:succ [||]);
      (* Several batches over one pool: domains are reused. *)
      for k = 1 to 5 do
        let out = Pool.map pool ~f:(fun x -> x + k) (Array.init 17 Fun.id) in
        Alcotest.(check int)
          (Printf.sprintf "batch %d" k)
          (16 + k)
          out.(16)
      done)

let test_pool_exception () =
  Pool.with_pool ~num_domains:4 (fun pool ->
      (* The lowest-index failure wins, and the batch drains cleanly —
         the pool stays usable afterwards. *)
      match
        Pool.map pool
          ~f:(fun x -> if x mod 10 = 3 then failwith (string_of_int x) else x)
          (Array.init 40 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg -> (
          Alcotest.(check string) "first failure by index" "3" msg;
          let out = Pool.map pool ~f:succ (Array.init 8 Fun.id) in
          Alcotest.(check int) "pool survives" 8 out.(7);
          (* [run] re-raises in the caller, and its worker stays. *)
          match Pool.run pool (fun () -> failwith "run") with
          | () -> Alcotest.fail "expected run to raise"
          | exception Failure msg ->
              Alcotest.(check string) "run re-raises" "run" msg;
              Alcotest.(check int) "pool survives run" 42
                (Pool.run pool (fun () -> 42))))

let domain_id () = (Domain.self () :> int)

let test_pool_run_sequential () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      Alcotest.(check int) "no worker before the first task" 0
        (Pool.workers pool);
      let ran = List.init 10 (fun _ -> Pool.run pool domain_id) in
      Alcotest.(check (list int)) "one domain for every call"
        (List.init 10 (fun _ -> List.hd ran))
        ran;
      Alcotest.(check bool) "not the caller's" true
        (List.hd ran <> domain_id ());
      Alcotest.(check int) "one worker spawned" 1 (Pool.workers pool))

(* Each task waits up to 5 s for the other to start: only two domains
   running them at once lets both see the other. *)
let test_pool_run_overlap () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      let started = Atomic.make 0 in
      let task () =
        Atomic.incr started;
        let until = Unix.gettimeofday () +. 5.0 in
        while Atomic.get started < 2 && Unix.gettimeofday () < until do
          Unix.sleepf 0.001
        done;
        (domain_id (), Atomic.get started = 2)
      in
      let other = ref None in
      let th =
        Thread.create (fun () -> other := Some (Pool.run pool task)) ()
      in
      let d1, met1 = Pool.run pool task in
      Thread.join th;
      match !other with
      | None -> Alcotest.fail "the other run returned nothing"
      | Some (d2, met2) ->
          Alcotest.(check bool) "both met" true (met1 && met2);
          Alcotest.(check bool) "distinct domains" true (d1 <> d2);
          Alcotest.(check int) "two workers" 2 (Pool.workers pool))

let test_pool_run_one_worker () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let running = Atomic.make 0 and overlapped = Atomic.make false in
      let task () =
        if Atomic.fetch_and_add running 1 > 0 then Atomic.set overlapped true;
        Unix.sleepf 0.01;
        Atomic.decr running
      in
      let threads =
        List.init 4 (fun _ -> Thread.create (fun () -> Pool.run pool task) ())
      in
      List.iter Thread.join threads;
      Alcotest.(check bool) "one task at a time" false (Atomic.get overlapped);
      Alcotest.(check int) "one worker" 1 (Pool.workers pool))

let test_pool_run_inline () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      Alcotest.(check int) "on the caller's domain" (domain_id ())
        (Pool.run pool domain_id);
      Alcotest.(check int) "no worker" 0 (Pool.workers pool))

let test_pool_shutdown () =
  let pool = Pool.create ~num_domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool shut down") (fun () ->
      ignore (Pool.map pool ~f:succ [| 1 |]));
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool shut down") (fun () ->
      Pool.run pool ignore);
  Alcotest.check_raises "bad size" (Invalid_argument "Pool.create: num_domains < 1")
    (fun () -> ignore (Pool.create ~num_domains:0 ()))

(* ---- Sweep vs the plain sequential loop. ---- *)

let widths = [ 8; 12; 16; 20; 24 ]

let sequential_reference soc ~num_buses ~constraints =
  List.map
    (fun total_width ->
      let problem = Problem.make ~constraints soc ~num_buses ~total_width in
      (Exact.solve problem).Exact.solution)
    widths

let check_rows_match label reference rows =
  List.iter2
    (fun expected (row : Sweep.row) ->
      match (expected, row.Sweep.solution) with
      | None, None -> ()
      | Some (arch, t), Some (arch', t') ->
          Alcotest.(check int)
            (Printf.sprintf "%s W=%d time" label row.Sweep.total_width)
            t t';
          Alcotest.(check (array int))
            (Printf.sprintf "%s W=%d widths" label row.Sweep.total_width)
            arch.Architecture.widths arch'.Architecture.widths;
          Alcotest.(check (array int))
            (Printf.sprintf "%s W=%d assignment" label row.Sweep.total_width)
            arch.Architecture.assignment arch'.Architecture.assignment
      | _ ->
          Alcotest.fail
            (Printf.sprintf "%s W=%d feasibility mismatch" label
               row.Sweep.total_width))
    reference rows

let run_with_jobs cells jobs =
  if jobs = 1 then Sweep.run cells
  else
    Pool.with_pool ~num_domains:jobs (fun pool -> Sweep.run ~pool cells)

let test_sweep_matches_sequential () =
  let soc = Benchmarks.s1 () in
  let constraints = Problem.no_constraints in
  let reference = sequential_reference soc ~num_buses:2 ~constraints in
  let cells = Sweep.cells soc ~num_buses:2 ~widths in
  List.iter
    (fun jobs ->
      let rows = run_with_jobs cells jobs in
      check_rows_match (Printf.sprintf "jobs=%d" jobs) reference rows)
    [ 1; 2; 4 ]

let test_sweep_constrained () =
  let soc = Benchmarks.s2 () in
  let constraints =
    { Problem.exclusion_pairs = [ (0, 4); (2, 7) ]; co_pairs = [ (1, 3) ] }
  in
  let reference = sequential_reference soc ~num_buses:3 ~constraints in
  let cells = Sweep.cells ~constraints soc ~num_buses:3 ~widths in
  List.iter
    (fun jobs ->
      let rows = run_with_jobs cells jobs in
      check_rows_match
        (Printf.sprintf "constrained jobs=%d" jobs)
        reference rows)
    [ 1; 2; 4 ]

let test_sweep_rows_identical_across_jobs () =
  let soc = Benchmarks.s3 () in
  let cells =
    Sweep.cells ~time_model:Test_time.Scan_distribution soc ~num_buses:3
      ~widths
  in
  let rows1 = run_with_jobs cells 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals jobs=1" jobs)
        true
        (Sweep.equal_rows rows1 (run_with_jobs cells jobs)))
    [ 2; 4 ]

let test_sweep_ilp_solver () =
  let soc = Benchmarks.s1 () in
  let cells =
    Sweep.cells
      ~solver:(Sweep.Ilp { time_limit_s = None; presolve = true; cuts = true; seed = true })
      soc ~num_buses:2 ~widths:[ 10; 12 ]
  in
  let rows1 = run_with_jobs cells 1 in
  let rows2 = run_with_jobs cells 2 in
  Alcotest.(check bool) "ilp rows identical" true
    (Sweep.equal_rows rows1 rows2);
  List.iter
    (fun (row : Sweep.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "ilp W=%d optimal" row.Sweep.total_width)
        true row.Sweep.optimal;
      Alcotest.(check bool)
        (Printf.sprintf "ilp W=%d searched" row.Sweep.total_width)
        true
        (row.Sweep.nodes > 0 && row.Sweep.lp_pivots > 0
        && row.Sweep.max_depth > 0))
    rows1;
  (* The MILP agrees with exact enumeration cell by cell. *)
  let exact = run_with_jobs (Sweep.cells soc ~num_buses:2 ~widths:[ 10; 12 ]) 2 in
  List.iter2
    (fun (i : Sweep.row) (e : Sweep.row) ->
      match (i.Sweep.solution, e.Sweep.solution) with
      | Some (_, ti), Some (_, te) ->
          Alcotest.(check int)
            (Printf.sprintf "ilp=exact W=%d" i.Sweep.total_width)
            te ti
      | _ -> Alcotest.fail "feasibility mismatch")
    rows1 exact

let test_sweep_heuristic_deterministic () =
  let soc = Benchmarks.s2 () in
  let cells =
    Sweep.cells ~solver:Sweep.Heuristic soc ~num_buses:3 ~widths
  in
  let rows1 = run_with_jobs cells 1 in
  let rows4 = run_with_jobs cells 4 in
  Alcotest.(check bool) "heuristic rows identical" true
    (Sweep.equal_rows rows1 rows4)

let test_totals () =
  let soc = Benchmarks.s1 () in
  let rows = run_with_jobs (Sweep.cells soc ~num_buses:2 ~widths) 2 in
  let totals = Sweep.totals rows in
  Alcotest.(check int) "cells" (List.length widths) totals.Sweep.cells;
  Alcotest.(check int) "feasible" (List.length widths) totals.Sweep.feasible;
  Alcotest.(check int) "nodes summed"
    (List.fold_left (fun a (r : Sweep.row) -> a + r.Sweep.nodes) 0 rows)
    totals.Sweep.nodes

let pool_suite =
  [ Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "empty batch + reuse" `Quick test_pool_empty_and_reuse;
    Alcotest.test_case "exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "sequential runs share one worker" `Quick
      test_pool_run_sequential;
    Alcotest.test_case "overlapping runs use two domains" `Quick
      test_pool_run_overlap;
    Alcotest.test_case "2-domain pool runs one task at a time" `Quick
      test_pool_run_one_worker;
    Alcotest.test_case "1-domain pool runs inline" `Quick
      test_pool_run_inline;
    Alcotest.test_case "shutdown" `Quick test_pool_shutdown ]

let suite =
  [ Alcotest.test_case "parallel = sequential (times, widths, assignments)"
      `Quick test_sweep_matches_sequential;
    Alcotest.test_case "parallel = sequential under constraints" `Quick
      test_sweep_constrained;
    Alcotest.test_case "rows identical for jobs in {1,2,4}" `Quick
      test_sweep_rows_identical_across_jobs;
    Alcotest.test_case "ilp solver cells" `Quick test_sweep_ilp_solver;
    Alcotest.test_case "heuristic solver deterministic" `Quick
      test_sweep_heuristic_deterministic;
    Alcotest.test_case "totals" `Quick test_totals ]
